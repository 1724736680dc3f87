package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func saveAt(t *testing.T, st *Store, step int64) SaveInfo {
	t.Helper()
	c := sampleCheckpoint(8)
	c.State.Step = step
	c.State.Time = float64(step) * 0.005
	info, err := st.Save(c)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestStoreRotationKeepsLastK(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(5); step <= 30; step += 5 {
		saveAt(t, st, step)
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("kept %d generations, want 3: %+v", len(gens), gens)
	}
	for i, wantStep := range []int64{20, 25, 30} {
		if gens[i].Step != wantStep {
			t.Errorf("generation %d at step %d, want %d", i, gens[i].Step, wantStep)
		}
	}
	// Rotated files are really gone and no temp files linger.
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	if len(files) != 3 {
		t.Errorf("directory holds %v, want exactly the 3 checkpoints", files)
	}
}

func TestStoreSameStepReplaces(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	saveAt(t, st, 10)
	saveAt(t, st, 10)
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Step != 10 {
		t.Fatalf("generations = %+v, want single step-10 entry", gens)
	}
}

func TestLatestValidPicksNewest(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	saveAt(t, st, 5)
	saveAt(t, st, 10)
	c, gen, err := st.LatestValid()
	if err != nil {
		t.Fatal(err)
	}
	if gen.Step != 10 || c.State.Step != 10 {
		t.Errorf("latest = step %d (gen %d), want 10", c.State.Step, gen.Step)
	}
}

func TestLatestValidFallsBackPastCorruptGeneration(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	saveAt(t, st, 5)
	info := saveAt(t, st, 10)

	// Corrupt the newest generation the way a torn write or bit rot
	// would: truncate to half.
	data, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(info.Path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c, gen, err := st.LatestValid()
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if gen.Step != 5 || c.State.Step != 5 {
		t.Errorf("fell back to step %d, want 5", gen.Step)
	}
}

func TestLatestValidAllCorruptIsLoud(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	info := saveAt(t, st, 5)
	if err := os.WriteFile(info.Path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = st.LatestValid()
	if err == nil {
		t.Fatal("all-corrupt store did not error")
	}
	if errors.Is(err, ErrNoCheckpoint) {
		t.Fatal("all-corrupt store reported as empty — that silently restarts physics")
	}
}

func TestLatestValidEmptyStore(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.keep != DefaultKeep {
		t.Errorf("keep = %d, want default %d", st.keep, DefaultKeep)
	}
	if _, _, err := st.LatestValid(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// TestParentWrittenStoreResumes pins compatibility with stores written
// before the directory became the only index: testdata/parent-store was
// written by the last commit that kept a MANIFEST.json beside the
// checkpoints (steps 10, 15, 20, keep 3). Whatever state that leftover
// file is in, the store resumes to the newest valid generation, falls
// back past a corrupt one, keeps rotating — and never reads, rewrites
// or recreates the manifest.
func TestParentWrittenStoreResumes(t *testing.T) {
	const manifestName = "MANIFEST.json"
	src := filepath.Join("testdata", "parent-store")
	written, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, manifest := range map[string][]byte{
		"as written": written, "corrupt": []byte("{not json"), "lost": nil,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, e := range ents {
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			mpath := filepath.Join(dir, manifestName)
			if manifest == nil {
				err = os.Remove(mpath)
			} else {
				err = os.WriteFile(mpath, manifest, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			c, gen, err := st.LatestValid()
			if err != nil {
				t.Fatal(err)
			}
			want := sampleCheckpoint(8)
			want.State.Step, want.State.Time = 20, 20*0.005
			if gen.Step != 20 || !reflect.DeepEqual(c, want) {
				t.Errorf("resumed generation %+v with state %+v, want the sample at step 20", gen, c.State)
			}

			if err := os.Truncate(filepath.Join(dir, gen.File), 500); err != nil {
				t.Fatal(err)
			}
			if _, gen, err = st.LatestValid(); err != nil || gen.Step != 15 {
				t.Errorf("fallback past the torn step-20 file: gen=%+v err=%v, want step 15", gen, err)
			}

			saveAt(t, st, 25)
			gens, err := st.Generations()
			if err != nil {
				t.Fatal(err)
			}
			if len(gens) != 3 || gens[0].Step != 15 || gens[2].Step != 25 {
				t.Errorf("after saving step 25 the store holds %+v, want steps 15, 20, 25", gens)
			}
			after, err := os.ReadFile(mpath)
			if manifest == nil {
				if !os.IsNotExist(err) {
					t.Errorf("a manifest was created (read err = %v)", err)
				}
			} else if err != nil || !bytes.Equal(after, manifest) {
				t.Errorf("the leftover manifest was touched: err=%v\n%s", err, after)
			}
		})
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.dir, "notes.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	for step := int64(1); step <= 4; step++ {
		saveAt(t, st, step)
	}
	if _, err := os.Stat(filepath.Join(st.dir, "notes.txt")); err != nil {
		t.Errorf("foreign file was pruned: %v", err)
	}
}
