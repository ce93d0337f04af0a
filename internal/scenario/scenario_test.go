package scenario

import (
	"math"
	"strings"
	"testing"
)

func validTrain() Spec {
	return Spec{Name: "train/tiny-cnn/bnff", Model: "tiny-cnn", Restructure: "bnff"}
}

func TestNormalizeDefaults(t *testing.T) {
	s := validTrain()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Batch != 16 || s.Steps != 5 || s.LR != 0.01 || s.Schedule != "constant" ||
		s.Workers != 1 || s.Replicas != 1 || s.BNStrategy != "local" {
		t.Errorf("train defaults wrong: %+v", s)
	}

	// Data-parallel spec: replicas stay as given, strategy canonicalizes.
	d := validTrain()
	d.Replicas = 2
	d.BNStrategy = "SYNC"
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.Replicas != 2 || d.BNStrategy != "sync" {
		t.Errorf("ddp normalize wrong: %+v", d)
	}
}

func TestNormalizeCanonicalizesAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"mvf": "rcf+mvf", "icf": "bnff+icf", "BNFF": "bnff", "Baseline": "baseline",
	} {
		s := validTrain()
		s.Restructure = alias
		if err := s.Normalize(); err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if s.Restructure != want {
			t.Errorf("alias %q canonicalized to %q, want %q", alias, s.Restructure, want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, s := range Builtin().Specs() {
		before := s
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", before.Name, err)
		}
		if s != before {
			t.Errorf("%s: second Normalize changed the spec:\nbefore %+v\nafter  %+v", before.Name, before, s)
		}
	}
}

func TestNormalizeErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "name required"},
		{"whitespace name", func(s *Spec) { s.Name = "bad name" }, "whitespace"},
		{"missing model", func(s *Spec) { s.Model = "" }, "model required"},
		{"unknown model", func(s *Spec) { s.Model = "resnet5000" }, "unknown model"},
		{"unknown restructure", func(s *Spec) { s.Restructure = "bnff+turbo" }, "unknown scenario"},
		{"negative workers", func(s *Spec) { s.Workers = -1 }, "workers"},
		{"huge workers", func(s *Spec) { s.Workers = 1 << 20 }, "workers"},
		{"negative batch", func(s *Spec) { s.Batch = -8 }, "batch"},
		{"negative steps", func(s *Spec) { s.Steps = -1 }, "steps"},
		{"negative lr", func(s *Spec) { s.LR = -0.5 }, "lr"},
		{"NaN lr", func(s *Spec) { s.LR = math.NaN() }, "lr"},
		{"infinite lr", func(s *Spec) { s.LR = math.Inf(1) }, "lr"},
		{"unknown schedule", func(s *Spec) { s.Schedule = "cyclic" }, "unknown schedule"},
		{"negative replicas", func(s *Spec) { s.Replicas = -2 }, "replicas"},
		{"indivisible shard", func(s *Spec) { s.Batch = 8; s.Replicas = 3 }, "shard"},
		{"unknown bn strategy", func(s *Spec) { s.Replicas = 2; s.BNStrategy = "async" }, "BN strategy"},
		{"sync on one replica", func(s *Spec) { s.BNStrategy = "sync" }, "replicas > 1"},
		{"sync without mvf", func(s *Spec) { s.Restructure = "rcf"; s.Replicas = 2; s.BNStrategy = "sync" }, "MVF"},
	}
	for _, tc := range cases {
		s := validTrain()
		tc.mut(&s)
		err := s.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
