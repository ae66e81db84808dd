//go:build !unix

package labelstore

import (
	"io"
	"os"
)

// mapFile on platforms without mmap support falls back to reading the
// file into one flat heap slice: identical semantics, no page-cache
// tiering (Encoding().Mapped reports false).
func mapFile(f *os.File, size int64) ([]byte, *mmapRegion, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}
