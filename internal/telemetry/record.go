package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// RunRecordSchema identifies the machine-readable benchmark-record layout.
// Consumers (CI validation, trend plots) key on this string; bump the
// version when the layout changes incompatibly.
const RunRecordSchema = "gofmm.bench/v1"

// RunRecord is one machine-readable benchmark/run result, the unit of the
// BENCH_*.json trajectory. Rows carry per-case measurements (one map per
// experiment row); Metrics carries scalar summaries; Telemetry optionally
// embeds the full metrics snapshot of an instrumented run.
type RunRecord struct {
	Schema      string             `json:"schema"`
	Name        string             `json:"name"`
	CreatedUnix int64              `json:"created_unix,omitempty"`
	Params      map[string]any     `json:"params,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Rows        []map[string]any   `json:"rows,omitempty"`
	Telemetry   *Snapshot          `json:"telemetry,omitempty"`
}

// NewRunRecord returns a schema-tagged record with the given name.
func NewRunRecord(name string) *RunRecord {
	return &RunRecord{
		Schema:  RunRecordSchema,
		Name:    name,
		Params:  map[string]any{},
		Metrics: map[string]float64{},
	}
}

// AttachSnapshot embeds the recorder's snapshot (no-op on nil recorder).
func (rr *RunRecord) AttachSnapshot(r *Recorder) {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	rr.Telemetry = &snap
}

// Write encodes the record as indented JSON.
func (rr *RunRecord) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rr)
}

// WriteBenchFile writes the record to dir/BENCH_<name>.json (name sanitized
// to [A-Za-z0-9._-]), creating dir if it is missing, and returns the path.
func (rr *RunRecord) WriteBenchFile(dir string) (string, error) {
	name := sanitizeBenchName(rr.Name)
	if name == "" {
		return "", fmt.Errorf("telemetry: empty run-record name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rr.Write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sanitizeBenchName maps a benchmark name to a safe filename fragment.
func sanitizeBenchName(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b.WriteRune(c)
		case c == '/':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ValidateRunRecord checks that data parses as a RunRecord with the current
// schema, a name, and at least one measurement (a metric, a row, or an
// embedded snapshot) — the invariant the CI artifact step enforces.
func ValidateRunRecord(data []byte) error {
	var rr RunRecord
	if err := json.Unmarshal(data, &rr); err != nil {
		return fmt.Errorf("telemetry: run record is not valid JSON: %w", err)
	}
	if rr.Schema != RunRecordSchema {
		return fmt.Errorf("telemetry: run record schema %q, want %q", rr.Schema, RunRecordSchema)
	}
	if rr.Name == "" {
		return fmt.Errorf("telemetry: run record has no name")
	}
	if len(rr.Metrics) == 0 && len(rr.Rows) == 0 && rr.Telemetry == nil {
		return fmt.Errorf("telemetry: run record %q carries no measurements", rr.Name)
	}
	return nil
}
