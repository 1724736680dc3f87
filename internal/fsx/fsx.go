// Package fsx provides the crash-safe filesystem primitives shared by
// the snapshot and checkpoint writers: a file that is either fully
// present with its final contents or absent, never torn. A multi-day
// run killed mid-write must find its durable state intact on restart.
package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file so that a crash at any instant leaves
// either the previous contents of path (or no file) or the complete new
// contents — never a torn mix. The sequence is the classic one: write
// to a temporary file in the same directory, fsync it, rename over the
// target, fsync the directory so the rename itself is durable.
//
// write receives the temporary file's writer and produces the payload;
// the number of payload bytes is returned on success. On any error the
// temporary file is removed and the target is untouched.
func AtomicWriteFile(path string, write func(w io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("fsx: creating temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		if rmErr := os.Remove(tmpName); rmErr != nil && !os.IsNotExist(rmErr) {
			err = fmt.Errorf("%w (and removing temp: %v)", err, rmErr)
		}
		return 0, err
	}

	if err := write(tmp); err != nil {
		return fail(fmt.Errorf("fsx: writing %s: %w", path, err))
	}
	n, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(fmt.Errorf("fsx: sizing %s: %w", tmpName, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("fsx: fsync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("fsx: closing %s: %w", tmpName, err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail(fmt.Errorf("fsx: renaming into %s: %w", path, err))
	}
	if err := SyncDir(dir); err != nil {
		// The rename already happened; the file is in place but its
		// directory entry may not be durable. Surface it — callers that
		// promise durability must not swallow this.
		return n, err
	}
	return n, nil
}

// SyncDir fsyncs a directory so that renames and removals inside it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsx: opening dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("fsx: fsync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("fsx: closing dir %s: %w", dir, err)
	}
	return nil
}
