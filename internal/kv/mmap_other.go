//go:build !unix

package kv

import "os"

// mapFile reads f whole where there is no mmap; the read path above is the
// same, over a heap copy.
func mapFile(f *os.File, size int) ([]byte, error) {
	b := make([]byte, size)
	_, err := f.ReadAt(b, 0)
	return b, err
}

func unmapFile([]byte) error { return nil }
