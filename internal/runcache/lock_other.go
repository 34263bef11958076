//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package runcache

import "os"

// Without flock every segment is treated as live: Open never renames
// one and GC never removes one; superseded schema directories are
// still swept whole.

func lockFile(*os.File) error { return nil }

func tryLock(*os.File) bool { return false }
