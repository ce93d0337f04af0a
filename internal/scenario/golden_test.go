package scenario

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// trainingGolden pins what each builtin scenario trains to: the fnv-1a digest
// of the checkpoint after Steps steps, the final loss bit for bit, and, for
// the data-parallel rows, the bytes the replicas all-reduced (zero for one
// replica). A kernel, layer, optimizer or data change that moves one bit of
// any trajectory fails here.
var trainingGolden = map[string]struct {
	digest      string
	loss        float64
	reduceBytes int64
}{
	"train/tiny-cnn/bnff":                 {"4b2b8eef847def2d", 1.6229902052515515, 0},
	"train/tiny-cnn/bnff/workers4":        {"281a495ebe92086f", 1.6229901805716216, 0},
	"train/tiny-densenet/baseline":        {"3e3c08fa2b99ca7b", 2.2260987866575777, 0},
	"train/tiny-densenet/bnff":            {"dcc95a46140d1bd7", 2.2260987445039655, 0},
	"train/tiny-densenet/bnff/ddp2":       {"dab7689e29e94fc5", 2.226098729947128, 228408},
	"train/tiny-densenet/bnff/ddp2-local": {"4bfffe86441015fa", 2.2532293728387938, 163128},
	"train/tiny-densenet/bnff/ddp4":       {"7d02f3f84f2ae27e", 2.226098748880543, 567720},
	"train/tiny-densenet/rcf":             {"3e3c08fa2b99ca7b", 2.2260987866575777, 0},
	"train/tiny-densenet/rcf+mvf":         {"dcc95a46140d1bd7", 2.2260987445039655, 0},
	"train/tiny-inception/bnff":           {"9edbdbd63ec0f436", 2.2094783670496154, 0},
	"train/tiny-resnet/baseline":          {"9236fccdd699c274", 2.9181541953269274, 0},
	"train/tiny-resnet/bnff":              {"aecd972f3bc3bb81", 2.9181541425343838, 0},
}

// TestBuiltinTrainingGolden trains every builtin scenario twice from scratch.
// Both runs must reproduce the pinned digest, loss and reduce count, so a
// nondeterministic trajectory fails as surely as a changed one. The table and
// Builtin() must name the same scenarios.
func TestBuiltinTrainingGolden(t *testing.T) {
	reg := Builtin()
	for name := range trainingGolden {
		if _, ok := reg.Get(name); !ok {
			t.Errorf("golden row %s names no builtin scenario", name)
		}
	}
	for _, sp := range reg.Specs() {
		want, ok := trainingGolden[sp.Name]
		if !ok {
			t.Errorf("builtin %s has no golden row", sp.Name)
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			for run := 0; run < 2; run++ {
				digest, loss, reduceBytes := trainDigest(t, sp)
				if digest != want.digest {
					t.Errorf("run %d: checkpoint digest %s, want %s", run, digest, want.digest)
				}
				if math.Float64bits(loss) != math.Float64bits(want.loss) {
					t.Errorf("run %d: final loss %v, want %v", run, loss, want.loss)
				}
				if reduceBytes != want.reduceBytes {
					t.Errorf("run %d: all-reduced %d bytes, want %d", run, reduceBytes, want.reduceBytes)
				}
			}
		})
	}
}

// The README's arithmetic claims, read off the table: recomputing fission and
// RCF change no bits, so rcf trains exactly as baseline does; only MVF's
// one-pass variance formula changes the statistics, so rcf+mvf trains
// exactly as bnff does, and differently from baseline.
func TestRestructuringEquivalenceClasses(t *testing.T) {
	for _, pair := range [][2]string{{"rcf", "baseline"}, {"rcf+mvf", "bnff"}} {
		a, b := trainingGolden["train/tiny-densenet/"+pair[0]], trainingGolden["train/tiny-densenet/"+pair[1]]
		if a != b {
			t.Errorf("%s trains to %+v, %s to %+v; want identical", pair[0], a, pair[1], b)
		}
	}
	if base, mvf := trainingGolden["train/tiny-densenet/baseline"], trainingGolden["train/tiny-densenet/bnff"]; base.digest == mvf.digest {
		t.Errorf("baseline and bnff share digest %s; MVF should change the bits", base.digest)
	}
}

// trainDigest builds sp's trainer, runs its Steps, and returns the trained
// checkpoint's digest, the final loss and the all-reduced byte count.
func trainDigest(t *testing.T, sp Spec) (string, float64, int64) {
	t.Helper()
	tr, err := sp.NewTrainer()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(sp.Steps)
	if err != nil {
		t.Fatal(err)
	}
	var reduceBytes int64
	if g := tr.Group(); g != nil {
		reduceBytes = g.ReduceBytes()
	}
	var buf bytes.Buffer
	if err := tr.Exec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64()), res.Loss, reduceBytes
}
