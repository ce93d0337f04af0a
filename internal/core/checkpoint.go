package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"bnff/internal/det"
	"bnff/internal/tensor"
)

// Checkpointing: executors serialize their parameters and BN running
// statistics to a small self-describing binary format, so training runs can
// be suspended/resumed and so a baseline-trained model can be loaded into a
// restructured executor (parameter names survive restructuring by design).
//
// Format (little endian):
//
//	magic "BNFF" | uint32 version | uint32 entry count |
//	per entry: uint32 name length | name | uint32 rank | int64 dims… |
//	           float32 data…

const (
	checkpointMagic   = "BNFF"
	checkpointVersion = 1
)

type entry struct {
	name string
	t    *tensor.Tensor
}

// Save writes all parameters and running statistics to w.
func (e *Executor) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Collect in sorted-name order (maporder contract) so the on-disk entry
	// order is a pure function of the model, then merge-sort the two groups.
	var entries []entry
	for _, name := range det.SortedKeys(e.Params) {
		entries = append(entries, entry{name, e.Params[name]})
	}
	for _, name := range det.SortedKeys(e.Running) {
		entries = append(entries, entry{name, e.Running[name]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(checkpointVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(entries))); err != nil {
		return err
	}
	for _, en := range entries {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(en.name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(en.name); err != nil {
			return err
		}
		shape := en.t.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, int64(d)); err != nil {
				return err
			}
		}
		for _, v := range en.t.Data {
			if err := binary.Write(bw, binary.LittleEndian, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load restores parameters and running statistics previously written by
// Save. Every entry must match an existing tensor by name and shape, in
// Save's ascending name order, and nothing may follow the last one; extra,
// missing, repeated or reordered entries are errors (a checkpoint for a
// different model must not load silently), so a stream that loads re-Saves
// to the same bytes. Load is atomic: entries decode into staging, and
// Params/Running change only once the whole stream has parsed.
//
// On an executor built WithFoldedBN, a successful Load triggers the BN-fold
// compile pass (see FoldBN): the checkpoint must therefore describe the
// *unfolded* model, and the executor cannot be re-loaded afterwards — folding
// is a terminal, deploy-time compilation.
func (e *Executor) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("core: checkpoint header: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	want := len(e.Params) + len(e.Running)
	if int(count) != want {
		return fmt.Errorf("core: checkpoint has %d entries, executor expects %d", count, want)
	}
	staged := make([]entry, count) // destinations, in stream order
	decoded := make([][]float32, count)
	for i := range staged {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("core: implausible checkpoint name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return err
		}
		name := string(nameBuf)
		if i > 0 && name <= staged[i-1].name {
			return fmt.Errorf("core: checkpoint entry %q follows %q (entries are unique, in ascending order)", name, staged[i-1].name)
		}

		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if rank > 8 {
			return fmt.Errorf("core: implausible rank %d for %q", rank, name)
		}
		shape := make(tensor.Shape, rank)
		for d := range shape {
			var dim int64
			if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
				return err
			}
			shape[d] = int(dim)
		}
		dst := e.Params[name]
		if dst == nil {
			dst = e.Running[name]
		}
		if dst == nil {
			return fmt.Errorf("core: checkpoint entry %q unknown to this executor", name)
		}
		if !dst.Shape().Equal(shape) {
			return fmt.Errorf("core: checkpoint entry %q shape %v, executor has %v", name, shape, dst.Shape())
		}
		decoded[i] = make([]float32, len(dst.Data))
		if err := binary.Read(br, binary.LittleEndian, decoded[i]); err != nil {
			return fmt.Errorf("core: checkpoint data of %q: %w", name, err)
		}
		staged[i] = entry{name, dst}
	}
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("core: data after the checkpoint's %d entries", count)
	} else if err != io.EOF {
		return err
	}
	for i, en := range staged {
		copy(en.t.Data, decoded[i])
	}
	if e.foldBN {
		return e.FoldBN()
	}
	return nil
}

// SaveFile writes a checkpoint to path atomically: the bytes go to a
// temporary file in the same directory, are synced to stable storage, and
// only then rename over path. A crash — or any write error — mid-save can
// therefore never leave a truncated or half-written checkpoint at path: the
// previous file survives untouched, and the temporary is removed on error.
func (e *Executor) SaveFile(path string) error {
	return saveFileAtomic(path, e.Save)
}

// saveFileAtomic is SaveFile's write-temp/sync/rename machinery with the
// serializer injected, so tests can fail a save mid-write and assert the
// previous checkpoint survives.
func saveFileAtomic(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := save(f); err != nil {
		return cleanup(err)
	}
	// Sync before rename: the rename must not become durable ahead of the
	// data it points at.
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile restores a checkpoint from path.
func (e *Executor) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.Load(f)
}
