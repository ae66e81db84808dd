package labelstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// FsyncDir fsyncs a directory, making previously-renamed entries in it
// durable. Every temp+rename commit point (generation directories,
// MANIFEST files, shard persists) must call this on the parent after
// the rename — POSIX makes the rename atomic but not durable, so a
// crash before the directory metadata reaches disk can silently lose a
// "committed" file even though the data blocks of the renamed file were
// fsynced. No-op on platforms whose directory handles reject Sync.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("labelstore: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if runtime.GOOS == "windows" {
			return nil // directory handles are not syncable there
		}
		return fmt.Errorf("labelstore: fsync dir %s: %w", dir, err)
	}
	return nil
}

// FsyncParentDir is FsyncDir on the parent directory of path — the
// common shape at commit points, which rename into the parent.
func FsyncParentDir(path string) error {
	return FsyncDir(filepath.Dir(path))
}

// ReplaceFile puts a new file at path atomically and durably: write
// fills a temp file in path's directory, which is fsynced, closed,
// renamed over path, and made to stick by an fsync of the directory — a
// crash leaves the old file or the new one, never a torn one. Every
// single-file commit point (a generation's MANIFEST, a shard's repair
// persist) goes through here, which is also where a crash-point
// injector hooks in.
func ReplaceFile(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return FsyncParentDir(path)
}
