package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bnff/internal/scenario"
)

// A -log-every below 1 is rejected before anything trains: 0 would divide by
// zero at the first print, and a negative value would print every step.
func TestRejectsLogEveryBelowOne(t *testing.T) {
	sp := scenario.Spec{Name: "t", Model: "tiny-cnn", Restructure: "bnff", Batch: 2, Steps: 1}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{0, -1} {
		save := filepath.Join(t.TempDir(), "ck")
		err := run(sp, options{every: every, save: save})
		if err == nil || !strings.Contains(err.Error(), "-log-every") {
			t.Errorf("-log-every %d: err = %v, want a -log-every error", every, err)
		}
		if _, err := os.Stat(save); !os.IsNotExist(err) {
			t.Errorf("-log-every %d: a checkpoint was written (stat err %v)", every, err)
		}
	}
}

// An explicit zero is refused with the flag's name, not read as the spec's
// default (Normalize fills zero fields), with and without -scenario.
func TestRejectsExplicitNonPositive(t *testing.T) {
	for _, flagName := range []string{"steps", "batch", "lr", "workers", "replicas"} {
		for _, prefix := range [][]string{nil, {"-scenario", "train/tiny-cnn/bnff"}} {
			args := append(prefix, "-model", "tiny-cnn", "-"+flagName, "0")
			if _, _, err := parseArgs(args); err == nil || !strings.Contains(err.Error(), "-"+flagName) {
				t.Errorf("%v: err = %v, want a -%s error", args, err, flagName)
			}
		}
	}
	sp, _, err := parseArgs([]string{"-model", "tiny-cnn", "-steps", "3", "-lr", "0.5"})
	if err != nil || sp.Steps != 3 || sp.LR != 0.5 {
		t.Errorf("positive flags: spec %+v, err %v", sp, err)
	}
}

// -compare after -load starts both sides from the checkpoint: the baseline
// takes the restructured trainer's loaded parameters and running statistics
// rather than writing its fresh initialization over them.
func TestCompareKeepsLoadedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ck")
	sp, _, err := parseArgs([]string{"-model", "tiny-cnn", "-restructure", "bnff", "-batch", "4", "-steps", "1", "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sp.NewTrainer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := tr.Exec.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	// Each run saves its post-step state; the checkpoint that -compare
	// writes must match the one a plain -load run writes.
	plain, compared := filepath.Join(dir, "plain"), filepath.Join(dir, "compared")
	if err := run(sp, options{every: 1, load: ckpt, save: plain}); err != nil {
		t.Fatal(err)
	}
	if err := run(sp, options{every: 1, load: ckpt, save: compared, compare: true}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(compared)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("-load -compare trained from a different state than -load alone")
	}
}
