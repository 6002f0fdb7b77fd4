package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Document is the on-disk metrics.json: one Point per sweep record that
// carried a snapshot, in record order. The encoding is canonical —
// 2-space-indented JSON, metrics sorted by key within each point, nothing
// wall-clock or host-dependent — so the same run produces byte-identical
// bytes at any -workers count and CI can pin a digest on it.
type Document struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Point carries one sweep point's Stable metrics, keyed by its spec key.
type Point struct {
	Key     string   `json:"key"`
	Metrics []Metric `json:"metrics"`
}

// Encode renders the document in its canonical form.
func (d Document) Encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		// The document has no unmarshalable fields; a failure here is a
		// programming error.
		panic(err)
	}
	return buf.Bytes()
}

// LoadDocument reads a metrics.json written by Encode.
func LoadDocument(path string) (Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Document{}, fmt.Errorf("telemetry: %w", err)
	}
	var d Document
	if err := json.Unmarshal(b, &d); err != nil {
		return Document{}, fmt.Errorf("telemetry: decode %s: %w", path, err)
	}
	return d, nil
}
