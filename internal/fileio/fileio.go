// Package fileio holds the crash-safe file primitives shared by the
// repository's two binary record formats: the simulation checkpoint
// (checkpoint.go) and the tuned-plan store (internal/plan/store.go).
package fileio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic streams fill into a temp file next to path, fsyncs the file,
// renames it over path, and fsyncs the directory so the rename itself is
// durable. A crash at any point leaves either the previous file or the new
// one, never a readable-but-torn file. An error from fill is returned as
// is; I/O errors are returned as "<prefix> <path>: <err>".
func WriteAtomic(path, prefix string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("%s %s: %w", prefix, path, err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("%s %s: %w", prefix, path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("%s %s: %w", prefix, path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s %s: %w", prefix, path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("%s %s: %w", prefix, path, err)
	}
	tmp = "" // committed: disable the cleanup
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFullLimited reads exactly want bytes, growing the buffer only as data
// actually arrives, so a forged length field in a corrupt record cannot
// force a huge up-front allocation.
func ReadFullLimited(r io.Reader, want uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(want, chunk))
	for uint64(len(buf)) < want {
		next := min(want-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, next)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
