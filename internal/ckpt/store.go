package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// DefaultKeep is the rotation depth when OpenStore is given keep <= 0.
const DefaultKeep = 3

// ErrNoCheckpoint reports that a store holds no checkpoint at all (as
// opposed to holding only corrupt ones, which is a loud error).
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// Generation names one retained checkpoint.
type Generation struct {
	// File is the checkpoint filename, relative to the store directory.
	File string
	// Step is the generation's step index, parsed from File.
	Step int64
}

// SaveInfo reports one completed save.
type SaveInfo struct {
	// Path is the absolute (store-dir-joined) checkpoint path.
	Path string
	// Step is the checkpoint's step index.
	Step int64
	// Bytes is the serialized size.
	Bytes int64
}

// Store is a rotating on-disk checkpoint directory: atomic writes,
// keep-last-K pruning, and latest-valid discovery. The directory itself
// is the only index — a generation is a file with the canonical name —
// so there is no second document to keep consistent with it, and
// LatestValid checksums every candidate before returning it. It is
// single-writer by contract (one run owns its checkpoint directory).
type Store struct {
	dir  string
	keep int
}

// OpenStore opens (creating if needed) a checkpoint directory keeping
// the last keep generations (DefaultKeep when keep <= 0).
func OpenStore(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store %s: %w", dir, err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

// genName returns the canonical filename for a step's checkpoint.
func genName(step int64) string { return fmt.Sprintf("ckpt-%012d.g5ck", step) }

// genStep parses a canonical checkpoint filename — exactly what genName
// produces for its step; ok is false for foreign files.
func genStep(name string) (step int64, ok bool) {
	_, err := fmt.Sscanf(name, "ckpt-%d.g5ck", &step)
	return step, err == nil && genName(step) == name
}

// Save writes the checkpoint atomically and prunes generations beyond
// the rotation depth, oldest first. A checkpoint for a step that already
// exists (a resumed run re-reaching it) replaces the old generation
// atomically.
func (st *Store) Save(c *Checkpoint) (SaveInfo, error) {
	if c == nil {
		return SaveInfo{}, fmt.Errorf("ckpt: nil checkpoint")
	}
	path := filepath.Join(st.dir, genName(c.State.Step))
	n, err := WriteFile(path, c)
	if err != nil {
		return SaveInfo{}, err
	}
	gens, err := st.Generations()
	if err != nil {
		return SaveInfo{}, err
	}
	var errs []error
	for _, g := range gens[:max(0, len(gens)-st.keep)] {
		if err := os.Remove(filepath.Join(st.dir, g.File)); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return SaveInfo{}, err
	}
	return SaveInfo{Path: path, Step: c.State.Step, Bytes: n}, nil
}

// Generations returns the retained generations, ascending by step: the
// files in the store directory that carry a canonical checkpoint name.
func (st *Store) Generations() ([]Generation, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: scanning %s: %w", st.dir, err)
	}
	var gens []Generation
	for _, e := range ents {
		if step, ok := genStep(e.Name()); ok && !e.IsDir() {
			gens = append(gens, Generation{File: e.Name(), Step: step})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Step < gens[j].Step })
	return gens, nil
}

// LatestValid loads the newest checkpoint that passes full validation,
// walking backwards through older generations when the newest is
// corrupt or truncated. It returns ErrNoCheckpoint when the store holds
// none at all, and a loud combined error when every generation present
// is corrupt — a store full of garbage must stop the run, not silently
// start physics from scratch.
func (st *Store) LatestValid() (*Checkpoint, Generation, error) {
	gens, err := st.Generations()
	if err != nil {
		return nil, Generation{}, err
	}
	if len(gens) == 0 {
		return nil, Generation{}, ErrNoCheckpoint
	}
	var errs []error
	for i := len(gens) - 1; i >= 0; i-- {
		c, rerr := ReadFile(filepath.Join(st.dir, gens[i].File))
		if rerr == nil {
			return c, gens[i], nil
		}
		errs = append(errs, rerr)
	}
	return nil, Generation{}, fmt.Errorf("ckpt: all %d checkpoint generation(s) in %s are invalid: %w",
		len(gens), st.dir, errors.Join(errs...))
}
