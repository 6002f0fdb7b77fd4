package sweep

import (
	"encoding/json"
	"io"
)

// WriteJSON serializes a report. The encoding is deterministic: records are
// in spec order, map keys are sorted by encoding/json, and nothing
// time- or host-dependent is included, so the same grid produces
// byte-identical output on every run at any worker count. It is indented,
// so a plain diff of two reports shows every moved metric.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
