//go:build unix

package kv

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only. The mapping outlives f
// and reflects the file as it is now: pages the file stops backing (it was
// truncated) fault when read, which DB.catchFault turns into an error.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapFile(b []byte) error { return syscall.Munmap(b) }
