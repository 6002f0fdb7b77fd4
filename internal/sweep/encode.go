package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteJSON serializes a report. The encoding is deterministic: records are
// in spec order, map keys are sorted by encoding/json, and nothing
// time- or host-dependent is included, so the same grid produces
// byte-identical output on every run at any worker count.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Load decodes a report written by WriteJSON.
func Load(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("sweep: decode report: %w", err)
	}
	return rep, nil
}

// LoadFile reads a BENCH_*.json report from disk.
func LoadFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	rep, err := Load(f)
	if err != nil {
		return Report{}, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return rep, nil
}

// WriteCSV renders the records as CSV with one row per point: the spec
// axes in use, then the sorted union of metric columns. Missing metrics
// are empty cells. Like the JSON form, the output is deterministic.
func WriteCSV(w io.Writer, recs []Record) error {
	specs := activeSpecColumns(recs)
	metrics := metricColumns(recs)
	row := make([]string, 0, len(specs)+len(metrics))
	for _, c := range specs {
		row = append(row, c.name)
	}
	row = append(row, metrics...)
	if err := writeCSVRow(w, row); err != nil {
		return err
	}
	for _, r := range recs {
		row = row[:0]
		for _, c := range specs {
			row = append(row, c.get(r.Spec))
		}
		for _, m := range metrics {
			if v, ok := r.Metrics[m]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVRow emits one comma-separated line. No field this package
// produces contains commas, quotes or newlines, so no quoting is needed.
func writeCSVRow(w io.Writer, fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, f); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}
