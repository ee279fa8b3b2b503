package fileio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAtomicFillErrorKeepsPrevious: a failing fill returns its own
// error unchanged, leaves the previous file intact, and leaves no temp file.
func TestWriteAtomicFillErrorKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(path, "test: write", func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want the fill error unchanged", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("previous file became %q", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d directory entries, want only the previous file", len(ents))
	}
}

func TestWriteAtomicPrefixesIOErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "rec.bin")
	err := WriteAtomic(path, "test: write", func(io.Writer) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "test: write "+path+": ") {
		t.Fatalf("err = %v, want the prefix and path", err)
	}
}

func TestReadFullLimited(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 3<<20+5)
	got, err := ReadFullLimited(bytes.NewReader(data), uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("multi-chunk read: len %d, %v", len(got), err)
	}
	if got, err := ReadFullLimited(bytes.NewReader(nil), 0); err != nil || len(got) != 0 {
		t.Fatalf("empty read: %v, %v", got, err)
	}
	// A forged length larger than the data is a short read, not a huge
	// allocation.
	if _, err := ReadFullLimited(bytes.NewReader(data[:10]), 1<<40); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read err = %v, want io.ErrUnexpectedEOF", err)
	}
}
