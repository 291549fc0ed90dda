package server

import (
	"fmt"
	"os"
	"sync"
)

// Group-commit journaling: observe calls append their JSONL event to
// an in-memory buffer and return; a store-level flusher goroutine
// drains every session's buffer to disk on a short tick (or earlier
// when a buffer passes its size threshold). Many observes thus share
// one write()/fsync() pair instead of paying a syscall each — the
// classic group commit of databases, applied to session journals. The
// durability/throughput trade-off is the FsyncPolicy.

// FsyncPolicy selects when a session journal is fsync'd.
type FsyncPolicy string

const (
	// FsyncNever leaves durability to the OS page cache: appends are
	// written (possibly group-buffered) but never explicitly synced.
	// Fastest; a machine crash can lose recent events, a daemon crash
	// cannot.
	FsyncNever FsyncPolicy = "never"
	// FsyncInterval syncs once per background flush tick — bounded
	// loss (at most one flush interval of events) at a small fraction
	// of the cost of per-append syncs. The hiperbotd default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncAlways writes and syncs every append before the observe
	// call returns. Maximum durability, minimum throughput.
	FsyncAlways FsyncPolicy = "always"
)

// ParseFsyncPolicy validates a policy name; "" means FsyncNever.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(s); p {
	case "":
		return FsyncNever, nil
	case FsyncNever, FsyncInterval, FsyncAlways:
		return p, nil
	}
	return "", fmt.Errorf("server: unknown fsync policy %q (want never, interval, or always)", s)
}

// journalSink sits between a session's Recorder and its journal file.
// It has its own mutex — never the session lock — so a slow disk
// flush contends with appends only, not with suggest/observe
// bookkeeping. Write errors are sticky: once an append or flush
// fails, the sink reports that error and drops further appends until
// it reopens, so observes fail fast and /healthz degrades instead of
// events vanishing silently. A sink starts closed; it opens when its
// session's create header is written, and again each time an evicted
// session rehydrates.
type journalSink struct {
	mu      sync.Mutex
	f       *os.File
	buf     []byte
	limit   int // buffered bytes that force an inline flush; 0 = write-through
	policy  FsyncPolicy
	written int64 // journal size: file bytes at open/swap + appends since
	err     error
	closed  bool
}

// open points a closed sink at the journal at path, opened (created if
// needed) for appending, and clears any error the previous file left.
func (j *journalSink) open(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.setFileLocked(f)
	j.closed, j.err = false, nil
	return nil
}

// setFileLocked makes f the append target with an empty buffer; the
// journal size starts at f's on-disk size.
func (j *journalSink) setFileLocked(f *os.File) {
	j.f = f
	j.buf = j.buf[:0]
	j.written = 0
	if fi, err := f.Stat(); err == nil {
		j.written = fi.Size()
	}
}

// Written returns the journal's byte size (on-disk plus buffered) —
// the compaction byte-threshold input. Resets on swap.
func (j *journalSink) Written() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.written
}

// swap replaces the sink's file with a freshly written tail journal
// (compaction). The caller must have flushed the sink first and hold
// the session lock so no appends race the swap; any bytes still
// buffered would belong to the old file and are dropped — by the
// compaction contract they are already captured in the snapshot.
func (j *journalSink) swap(f *os.File) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		f.Close()
		return fmt.Errorf("server: journal closed")
	}
	old := j.f
	j.setFileLocked(f)
	return old.Close()
}

// Write implements io.Writer for the Recorder's JSON encoder. Each
// call is one complete JSONL line (encoding/json.Encoder emits one
// Write per Encode), so flush boundaries never split an event.
func (j *journalSink) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	if j.closed {
		return 0, fmt.Errorf("server: journal closed")
	}
	j.buf = append(j.buf, p...)
	j.written += int64(len(p))
	if j.policy == FsyncAlways || j.limit <= 0 || len(j.buf) >= j.limit {
		if err := j.flushLocked(j.policy == FsyncAlways); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (j *journalSink) flushLocked(sync bool) error {
	if j.err != nil {
		return j.err
	}
	if len(j.buf) > 0 {
		if _, err := j.f.Write(j.buf); err != nil {
			j.err = err
			return err
		}
		j.buf = j.buf[:0]
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			j.err = err
			return err
		}
	}
	return nil
}

// Flush drains buffered appends to the file; sync additionally
// fsyncs. Called by the store's flusher goroutine and on shutdown.
func (j *journalSink) Flush(sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	return j.flushLocked(sync)
}

// Err returns the sticky write error, if any.
func (j *journalSink) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes (fsyncing unless the policy is FsyncNever), closes the
// file and lets go of it and the buffer, since an evicted session keeps
// its sink. Idempotent; the file is closed even when the final flush
// fails.
func (j *journalSink) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	ferr := j.flushLocked(j.policy != FsyncNever)
	cerr := j.f.Close()
	j.f, j.buf = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
