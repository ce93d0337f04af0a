package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bnff/internal/det"
	"bnff/internal/models"
	"bnff/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	g, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewExecutor(g, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	// Perturb running stats so they are non-trivial.
	for _, r := range src.Running {
		tensor.NewRNG(3).FillUniform(r, 0, 2)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	g2, err := models.TinyCNN(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewExecutor(g2, WithSeed(99)) // different init
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, p := range src.Params {
		if d, _ := tensor.MaxAbsDiff(p, dst.Params[name]); d != 0 {
			t.Errorf("parameter %q not restored exactly (diff %v)", name, d)
		}
	}
	for name, r := range src.Running {
		if d, _ := tensor.MaxAbsDiff(r, dst.Running[name]); d != 0 {
			t.Errorf("running stat %q not restored exactly (diff %v)", name, d)
		}
	}
}

// A checkpoint written by a baseline executor must load into a BNFF
// executor — the parameter-name stability the restructuring guarantees.
func TestCheckpointAcrossRestructuring(t *testing.T) {
	gBase, _ := models.TinyDenseNet(2)
	base, err := NewExecutor(gBase, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := base.Save(&buf); err != nil {
		t.Fatal(err)
	}

	gBNFF, _ := models.TinyDenseNet(2)
	if err := Restructure(gBNFF, BNFF.Options()); err != nil {
		t.Fatal(err)
	}
	fused, err := NewExecutor(gBNFF, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Outputs must now match the baseline's.
	in := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(5).FillNormal(in, 0, 1)
	yBase, err := base.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	yFused, err := fused.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(yBase, yFused, 1e-3, 1e-3) {
		t.Error("checkpoint-restored BNFF executor diverges from baseline")
	}
}

func TestCheckpointRejectsWrongModel(t *testing.T) {
	g1, _ := models.TinyCNN(2, 8, 4)
	e1, err := NewExecutor(g1, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _ := models.TinyResNet(2)
	e2, err := NewExecutor(g2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("loaded a checkpoint from a different model")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	g, _ := models.TinyCNN(2, 8, 4)
	e, err := NewExecutor(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if err := e.Load(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad magic")
	}
	// Truncated.
	if err := e.Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("accepted truncated checkpoint")
	}
	// Bad version.
	bad = append([]byte{}, data...)
	bad[4] = 0xFF
	if err := e.Load(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad version")
	}
	// Empty stream.
	if err := e.Load(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty stream")
	}
}

// stateBits copies the bits of every parameter and running tensor.
func stateBits(e *Executor) map[string][]uint32 {
	s := make(map[string][]uint32)
	for _, m := range []map[string]*tensor.Tensor{e.Params, e.Running} {
		for _, name := range det.SortedKeys(m) {
			bits := make([]uint32, len(m[name].Data))
			for i, v := range m[name].Data {
				bits[i] = math.Float32bits(v)
			}
			s[name] = bits
		}
	}
	return s
}

// changedSince names the tensors whose bits differ from the snapshot s.
func changedSince(e *Executor, s map[string][]uint32) []string {
	var changed []string
	now := stateBits(e)
	for _, name := range det.SortedKeys(s) {
		if !slices.Equal(s[name], now[name]) {
			changed = append(changed, name)
		}
	}
	return changed
}

// tinyCheckpoint returns a tiny-cnn executor and a checkpoint of a
// differently seeded one, with non-trivial running statistics.
func tinyCheckpoint(tb testing.TB) (*Executor, []byte) {
	tb.Helper()
	exec := func(seed uint64) *Executor {
		g, err := models.TinyCNN(2, 8, 4)
		if err != nil {
			tb.Fatal(err)
		}
		e, err := NewExecutor(g, WithSeed(seed))
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	src := exec(42)
	for _, r := range src.Running {
		tensor.NewRNG(3).FillUniform(r, 0, 2)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return exec(7), buf.Bytes()
}

// A Load that fails — however far into the stream — leaves every parameter
// and running statistic exactly as it was: entries are staged and copied in
// only once the whole checkpoint has parsed.
func TestCheckpointLoadIsAtomic(t *testing.T) {
	for _, cut := range []struct {
		name string
		bad  func(ckpt []byte) []byte
	}{
		{"cut 10 bytes short", func(ckpt []byte) []byte { return ckpt[:len(ckpt)-10] }},
		{"one byte of trailing data", func(ckpt []byte) []byte { return append(slices.Clone(ckpt), 0) }},
	} {
		e, ckpt := tinyCheckpoint(t)
		before := stateBits(e)
		if err := e.Load(bytes.NewReader(cut.bad(ckpt))); err == nil {
			t.Errorf("%s: loaded", cut.name)
		}
		if changed := changedSince(e, before); len(changed) > 0 {
			t.Errorf("%s: failed Load overwrote %d of %d tensors: %v", cut.name, len(changed), len(before), changed)
		}
		if err := e.Load(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCheckpointLoad feeds Load arbitrary bytes, seeded with a real
// checkpoint, that checkpoint cut at every entry boundary, and header and
// entry fields made wrong one at a time. Load must never panic; an error must
// leave Params and Running bit-identical; a success must re-Save to exactly
// the bytes it read. Plain `go test` replays the seeds; `make fuzz` explores.
func FuzzCheckpointLoad(f *testing.F) {
	e, ckpt := tinyCheckpoint(f)
	f.Add(ckpt)
	// Entry boundaries, in Save's order: a 12-byte header, then per entry
	// name length, name, rank, dims and data.
	var names []string
	for _, m := range []map[string]*tensor.Tensor{e.Params, e.Running} {
		names = append(names, det.SortedKeys(m)...)
	}
	slices.Sort(names)
	off := 12
	for _, name := range names {
		f.Add(ckpt[:off])
		tt := e.Params[name]
		if tt == nil {
			tt = e.Running[name]
		}
		off += 4 + len(name) + 4 + 8*tt.Rank() + 4*tt.NumElems()
	}
	first := 12 + 4 + len(names[0]) // the first entry's rank field
	for _, edit := range []struct {
		at int
		to byte
	}{
		{0, 'X'},        // magic
		{4, 2},          // version
		{8, 0},          // entry count
		{12, 0xff},      // name length
		{13, 0x10},      // implausible name length
		{16, 'a'},       // name
		{first, 9},      // rank
		{first + 4, 99}, // first dim
	} {
		bad := slices.Clone(ckpt)
		bad[edit.at] = edit.to
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := stateBits(e)
		if err := e.Load(bytes.NewReader(data)); err != nil {
			if changed := changedSince(e, before); len(changed) > 0 {
				t.Fatalf("failed Load (%v) overwrote %v", err, changed)
			}
			return
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("loaded %d bytes that re-Save as %d different ones", len(data), buf.Len())
		}
	})
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bnff")
	g, _ := models.TinyCNN(2, 8, 4)
	e, err := NewExecutor(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, _ := models.TinyCNN(2, 8, 4)
	e2, err := NewExecutor(g2, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	for name, p := range e.Params {
		if d, _ := tensor.MaxAbsDiff(p, e2.Params[name]); d != 0 {
			t.Errorf("file round trip changed %q", name)
		}
	}
	if err := e2.LoadFile(filepath.Join(dir, "missing.bnff")); err == nil {
		t.Error("loaded a missing file")
	}
}

// TestSaveFileCrashSafety injects a mid-write failure into the atomic save
// machinery and asserts the previous checkpoint at the target path survives
// byte-identical, with no temporary files left behind.
func TestSaveFileCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bnff")
	g, _ := models.TinyCNN(2, 8, 4)
	e, err := NewExecutor(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A save that emits half a header and then dies mid-write.
	boom := errors.New("injected mid-write failure")
	err = saveFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("BNFF\x01\x00")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("saveFileAtomic error = %v, want injected failure", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint gone after failed save: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save corrupted the previous checkpoint")
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("temporary files left behind: %v", names)
	}
	// The surviving checkpoint still loads.
	if err := e.LoadFile(path); err != nil {
		t.Errorf("surviving checkpoint no longer loads: %v", err)
	}
}

// TestSaveLoadSaveByteIdentical: serialization is a pure function of the
// model state, so a load/save cycle reproduces the exact bytes — the
// property resumable training relies on when it re-checkpoints.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.bnff")
	p2 := filepath.Join(dir, "b.bnff")
	g, _ := models.TinyDenseNet(2)
	e, err := NewExecutor(g, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Running {
		tensor.NewRNG(13).FillUniform(r, 0, 2)
	}
	if err := e.SaveFile(p1); err != nil {
		t.Fatal(err)
	}
	g2, _ := models.TinyDenseNet(2)
	e2, err := NewExecutor(g2, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadFile(p1); err != nil {
		t.Fatal(err)
	}
	if err := e2.SaveFile(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("save -> load -> save is not byte-identical")
	}
}
