//go:build unix

package runstore

import (
	"os"
	"syscall"
)

// flock takes an exclusive, non-blocking lock on f, held until f is
// closed or the process exits.
func flock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}
