package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// GridSchemaVersion stamps the experiments.json format. Bump on any
// incompatible change to Grid or Spec field semantics. Version 2 dropped the
// serve scenario list and the spec's kind field.
const GridSchemaVersion = 2

// Grid is the on-disk experiment grid (scripts/paper/experiments.json): the
// training scenarios plus the names the smoke subset runs in CI. Decoding
// normalizes every spec and rejects duplicates and unknown smoke names.
type Grid struct {
	SchemaVersion int      `json:"schema_version"`
	Train         []Spec   `json:"train"`
	Smoke         []string `json:"smoke,omitempty"`
}

// DefaultGrid renders the builtin registry as a grid, with the smoke subset
// covering the baseline, one restructured run and one data-parallel run.
func DefaultGrid() *Grid {
	return &Grid{
		SchemaVersion: GridSchemaVersion,
		Train:         Builtin().Specs(),
		Smoke: []string{
			"train/tiny-densenet/baseline",
			"train/tiny-densenet/bnff",
			"train/tiny-densenet/bnff/ddp2",
		},
	}
}

// ParseGrid decodes and validates a grid. Unknown JSON fields are errors so
// a typoed knob cannot silently revert to its default.
func ParseGrid(r io.Reader) (*Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("scenario: decoding grid: %w", err)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGrid reads and validates a grid file.
func LoadGrid(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ParseGrid(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g *Grid) validate() error {
	if g.SchemaVersion != GridSchemaVersion {
		return fmt.Errorf("scenario: grid schema_version %d, this binary speaks %d", g.SchemaVersion, GridSchemaVersion)
	}
	seen := make(map[string]bool, len(g.Train))
	for i := range g.Train {
		if err := g.Train[i].Normalize(); err != nil {
			return err
		}
		if seen[g.Train[i].Name] {
			return fmt.Errorf("scenario: duplicate name %q", g.Train[i].Name)
		}
		seen[g.Train[i].Name] = true
	}
	for _, name := range g.Smoke {
		if !seen[name] {
			return fmt.Errorf("scenario: smoke entry %q names no grid scenario", name)
		}
	}
	return nil
}

// Registry indexes the grid's scenarios. The grid must have been produced by
// ParseGrid/LoadGrid or DefaultGrid (specs normalized).
func (g *Grid) Registry() (*Registry, error) {
	return NewRegistry(g.Train...)
}

// MarshalCanonical renders the grid in its canonical byte form: two-space
// indented JSON, fixed field order, trailing newline. Encoding the same grid
// always yields identical bytes, which is what lets a committed
// experiments.json double as the registry-determinism golden file.
func (g *Grid) MarshalCanonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
