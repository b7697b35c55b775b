package store

import (
	"os"
	"syscall"
	"testing"
)

// failBlobWrites makes every blob write, until the test ends, store the
// first half of its bytes and then fail with ENOSPC, as a write onto a full
// disk does.
func failBlobWrites(t *testing.T) {
	write := writeBlob
	t.Cleanup(func() { writeBlob = write })
	writeBlob = func(f *os.File, b []byte) (int, error) {
		n, err := f.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		return n, syscall.ENOSPC
	}
}
