package runcache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// GCOptions bounds a garbage-collection pass over a cache directory.
type GCOptions struct {
	// MaxAge removes segments not appended to within the window (0
	// disables the age bound). Quarantined ".corrupt" segments age out
	// the same way.
	MaxAge time.Duration
	// MaxBytes caps the total size of the live schema directory after
	// the pass; the oldest segments are removed first until the cap
	// holds (0 disables the size bound).
	MaxBytes int64
	// Now anchors age computation; the zero value means time.Now().
	Now time.Time
}

// The default GC bounds of bpsim -cache-gc and bpserve's periodic
// pass.
const (
	DefaultGCMaxAge   = 30 * 24 * time.Hour
	DefaultGCMaxBytes = 4 << 30
)

// GCReport summarizes one garbage-collection pass.
type GCReport struct {
	// SchemaDirsRemoved counts superseded per-schema subdirectories
	// removed wholesale.
	SchemaDirsRemoved int
	// EntriesRemoved counts files — segments and quarantined segments —
	// removed from the live schema directory (aged out or evicted for
	// size).
	EntriesRemoved int
	// BytesFreed is the total size removed, across both categories.
	BytesFreed int64
	// EntriesKept / BytesKept describe the files that remain in the
	// live schema directory, live writers' segments included.
	EntriesKept int
	BytesKept   int64
}

func (r GCReport) String() string {
	return fmt.Sprintf("removed %d superseded schema dir(s) and %d segment(s), freed %s; kept %d segment(s), %s",
		r.SchemaDirsRemoved, r.EntriesRemoved, human(r.BytesFreed), r.EntriesKept, human(r.BytesKept))
}

// human renders a byte count for the report line.
func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// GC garbage-collects the cache directory rooted at dir.
//
// Per-schema subdirectories of any schema other than the live one are
// superseded — no binary reads that encoding any more — and are removed
// wholesale. Within the live schema, segments older than MaxAge are
// removed, then the oldest survivors are evicted until the directory
// fits MaxBytes. A segment is removed only while GC holds its lock, so
// a live writer's segment is never collected (its size still counts
// toward MaxBytes); a reader racing the pass loses at most cache hits,
// never sees a torn record. Empty segments are a writer's first instant
// and are left alone.
//
// A missing dir is not an error (there is nothing to collect).
func GC(dir, schema string, o GCOptions) (GCReport, error) {
	var rep GCReport
	if o.Now.IsZero() {
		o.Now = time.Now() //bpvet:allow GC age cutoff; tests inject a fixed Now, results never see it
	}
	live := schemaID(schema)
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("runcache: %w", err)
	}

	// file is a live schema directory's file, a candidate for the
	// age/size bounds.
	type file struct {
		path string
		size int64
		mod  time.Time
	}
	var files []file

	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), "v-") {
			// Foreign files at the root (and anything not schema-shaped)
			// are not ours to collect.
			continue
		}
		sub := filepath.Join(dir, de.Name())
		if de.Name() != live {
			freed, err := dirSize(sub)
			if err != nil {
				return rep, err
			}
			if err := os.RemoveAll(sub); err != nil {
				return rep, fmt.Errorf("runcache: %w", err)
			}
			rep.SchemaDirsRemoved++
			rep.BytesFreed += freed
			continue
		}
		names, err := os.ReadDir(sub)
		if err != nil {
			return rep, fmt.Errorf("runcache: %w", err)
		}
		for _, fe := range names {
			if fe.IsDir() {
				continue
			}
			info, err := fe.Info()
			if err != nil {
				continue // vanished under a concurrent process
			}
			files = append(files, file{filepath.Join(sub, fe.Name()), info.Size(), info.ModTime()})
		}
	}

	// Oldest first: the age bound removes a prefix, and the size bound
	// evicts in the same order.
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	var total int64
	for _, f := range files {
		total += f.size
	}
	kept := 0
	for _, f := range files {
		aged := o.MaxAge > 0 && o.Now.Sub(f.mod) > o.MaxAge
		over := o.MaxBytes > 0 && total > o.MaxBytes
		if (aged || over) && removeDead(f.path) {
			rep.EntriesRemoved++
			rep.BytesFreed += f.size
			total -= f.size
			continue
		}
		kept++
	}
	rep.EntriesKept = kept
	rep.BytesKept = total
	return rep, nil
}

// removeDead removes a file unless it is a segment that is empty or
// whose lock a live writer holds, reporting whether it removed it.
func removeDead(path string) bool {
	if !isSegment(filepath.Base(path)) {
		return os.Remove(path) == nil
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	if !tryLock(f) {
		return false
	}
	if info, err := f.Stat(); err != nil || info.Size() == 0 {
		return false
	}
	return os.Remove(path) == nil
}

// dirSize sums the file sizes under a directory (one level of nesting
// is all the store ever creates, but walk defensively).
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // vanished; size it as zero
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("runcache: %w", err)
	}
	return n, nil
}

// StartGC runs GC over dir on a fixed interval, so a long-lived worker
// bounds its own disk use instead of waiting for a manual
// `bpsim -cache-gc`. schema names the live encoding, whose subdirectory
// survives (every other schema directory is removed wholesale); opts
// carries the same age/size bounds the manual sweep takes. Reports are written to log (one line per pass; nil discards
// them). The returned stop function ends the loop; it does not
// interrupt a pass already in flight.
//
// Collecting under a store another process has open is safe: GC never
// removes a segment whose writer still holds its lock, and a vanished
// entry only costs a future re-simulation.
func StartGC(dir, schema string, interval time.Duration, opts GCOptions, log io.Writer) (stop func()) {
	if interval <= 0 || dir == "" {
		return func() {}
	}
	done := make(chan struct{})
	pass := func() {
		rep, err := GC(dir, schema, opts)
		if log == nil {
			return
		}
		if err != nil {
			fmt.Fprintf(log, "cache-gc %s: %v\n", dir, err) //bpvet:allow best-effort GC telemetry to the worker log
			return
		}
		fmt.Fprintf(log, "cache-gc %s: %s\n", dir, rep) //bpvet:allow best-effort GC telemetry to the worker log
	}
	go func() {
		// One pass up front: a worker restarted more often than the
		// interval must still shed superseded schema directories.
		pass()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			pass()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
