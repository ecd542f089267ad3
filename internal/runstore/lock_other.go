//go:build !unix

package runstore

import "os"

// flock takes no lock on a platform without flock, where one writer at
// a time is the caller's duty.
func flock(*os.File) error { return nil }
