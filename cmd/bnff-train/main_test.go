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
		err := run(sp, false, every, save, "", "", false)
		if err == nil || !strings.Contains(err.Error(), "-log-every") {
			t.Errorf("-log-every %d: err = %v, want a -log-every error", every, err)
		}
		if _, err := os.Stat(save); !os.IsNotExist(err) {
			t.Errorf("-log-every %d: a checkpoint was written (stat err %v)", every, err)
		}
	}
}
