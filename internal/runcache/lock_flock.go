//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package runcache

import (
	"os"
	"syscall"
)

// lockFile takes the exclusive advisory lock a writer holds on its
// segment for the store's lifetime; the kernel drops it when the
// process exits, however it exits.
func lockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}

// tryLock takes a segment's lock if no live writer holds it, reporting
// whether it did. The lock is released when f is closed.
func tryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}
