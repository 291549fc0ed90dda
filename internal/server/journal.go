package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Session state is event-sourced to one JSONL journal per session:
// the first line is a create header (id, space JSON, options), every
// further line is a core.RecorderEvent appended by the Recorder wired
// into the tuner's OnStep hook — the same schema `hiperbot -record`
// streams, so existing tooling can tail a live session journal. On
// restart the store replays each journal (and, once the session has
// been compacted, its snapshot — see snapshot.go): rebuild the space
// and options from the header, parse the events back into
// observations via space.FromLabels, and hand them to Tuner.ResumeObs,
// which removes every resumed configuration from the candidate pool
// so no evaluation is ever repeated.
//
// A compacted session's journal is a *tail*: its header carries
// Base = N, meaning events 1..N live in the snapshot and the journal
// holds only events N+1 onward. Fresh sessions have Base 0 (the field
// is omitted, so pre-compaction journals parse unchanged).

// journalHeader is the first line of a session journal.
type journalHeader struct {
	Event     string                 `json:"event"` // always "create"
	ID        string                 `json:"id"`
	Space     json.RawMessage        `json:"space"`
	Options   httpapi.SessionOptions `json:"options"`
	CreatedAt string                 `json:"created_at,omitempty"`
	// Base counts the events already captured by the session's
	// snapshot when this journal file was written: the journal's first
	// event is observation Base+1. Zero (omitted) for never-compacted
	// sessions.
	Base int `json:"base,omitempty"`
}

// writeHeader appends the create header to w.
func writeHeader(w io.Writer, h journalHeader) error {
	h.Event = "create"
	return json.NewEncoder(w).Encode(h)
}

// journalTail is one journal file as read from disk, tolerant of the
// torn final line a crash mid-append leaves behind.
type journalTail struct {
	hdr      journalHeader
	hdrOK    bool // header line parsed and is a create event
	events   []core.RecorderEvent
	size     int64 // file size on disk
	validLen int64 // byte length of the intact prefix (complete, parseable lines)
}

// readJournalFile parses a journal, stopping at (not failing on) a
// torn final line: validLen marks the intact prefix so the caller can
// truncate before appending again. A malformed line with further
// complete lines after it is mid-file corruption and errors — that is
// not a crash signature, and resuming around it would silently drop
// evaluations.
func readJournalFile(path string) (journalTail, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return journalTail{}, err
	}
	t := journalTail{size: int64(len(raw))}
	off, lineNo := 0, 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn final line (no newline): crash mid-append
		}
		line := raw[off : off+nl+1]
		atEnd := off+nl+1 == len(raw)
		if lineNo == 0 {
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Event != "create" {
				break // torn or garbled header: nothing salvageable here
			}
			t.hdr, t.hdrOK = hdr, true
		} else {
			var ev core.RecorderEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				if atEnd {
					break // torn final line that happens to end in '\n'
				}
				return journalTail{}, fmt.Errorf("server: journal %s: malformed event line %d: %w", path, lineNo+1, err)
			}
			t.events = append(t.events, ev)
		}
		off += nl + 1
		t.validLen = int64(off)
		lineNo++
	}
	return t, nil
}

// errUnresumable marks a session whose on-disk state cannot rebuild
// any history — a garbled journal with no snapshot behind it. The
// store-open scan skips such files (renaming them *.corrupt) instead
// of refusing to start.
var errUnresumable = errors.New("server: session state unresumable")

// sessionState is everything needed to rebuild one session:
// observations in replay order (snapshot first, then the journal
// tail) plus the repair actions the on-disk files need.
type sessionState struct {
	hdr        journalHeader
	sp         *space.Space
	obs        []core.Observation
	snapEvents int       // events covered by the on-disk snapshot (0: none)
	snapSize   int64     // snapshot size on disk
	snapAt     time.Time // snapshot file mtime
	truncateTo int64     // >= 0: truncate the journal to this length (torn tail); -1: clean
	rebuild    bool      // journal unusable or missing: rewrite a fresh tail from the snapshot header
}

// loadSessionState reads a session's snapshot (if any) and journal,
// reconciles them, and returns the combined replay state. Crash
// signatures are repaired or tolerated; genuine corruption
// (mid-journal garbage, checksum-failing snapshot, a tail whose
// snapshot vanished) errors.
func (st *Store) loadSessionState(id string) (*sessionState, error) {
	out := &sessionState{truncateTo: -1}

	spath := st.snapshotPath(id)
	var snapHdr snapshotHeader
	var snapSp *space.Space
	var snapObs []core.Observation
	haveSnap := false
	if fi, err := os.Stat(spath); err == nil {
		snapHdr, snapSp, snapObs, err = readSnapshotFile(spath)
		if err != nil {
			return nil, fmt.Errorf("server: %s: %w", spath, err)
		}
		haveSnap = true
		out.snapEvents = snapHdr.Events
		out.snapSize = fi.Size()
		out.snapAt = fi.ModTime()
	}

	jpath := st.journalPath(id)
	tail, err := readJournalFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	jMissing := os.IsNotExist(err)

	switch {
	case !jMissing && tail.hdrOK:
		if tail.validLen < tail.size {
			st.logf("hiperbotd: journal %s: dropping %d byte(s) of torn final line (crash mid-append); resuming from the intact prefix",
				jpath, tail.size-tail.validLen)
			out.truncateTo = tail.validLen
		}
		if tail.hdr.Base < 0 {
			return nil, fmt.Errorf("server: journal %s has a negative base %d", jpath, tail.hdr.Base)
		}
		if tail.hdr.Base > 0 && !haveSnap {
			return nil, fmt.Errorf("server: journal %s is a tail (base %d) but snapshot %s is missing", jpath, tail.hdr.Base, spath)
		}
		if haveSnap && tail.hdr.Base > snapHdr.Events {
			return nil, fmt.Errorf("server: journal %s base %d exceeds snapshot %s events %d", jpath, tail.hdr.Base, spath, snapHdr.Events)
		}
		out.hdr = tail.hdr
		out.sp, err = space.SpaceFromJSON(tail.hdr.Space)
		if err != nil {
			return nil, fmt.Errorf("server: journal %s space: %w", jpath, err)
		}
		events := tail.events
		if haveSnap {
			// The snapshot may cover a prefix of this journal (crash
			// between snapshot rename and journal rewrite, or events that
			// were buffered at snapshot time and never hit the old
			// journal): skip the overlap, replay the rest.
			skip := snapHdr.Events - tail.hdr.Base
			if skip > len(events) {
				skip = len(events)
			}
			events = events[skip:]
			out.obs = snapObs
		}
		for i, ev := range events {
			c, err := out.sp.FromLabels(ev.Config)
			if err != nil {
				return nil, fmt.Errorf("server: journal %s event %d: %w", jpath, i+1, err)
			}
			// Value, Metrics, and the canonical objective vector are
			// replayed verbatim from the event — no re-derivation, so a
			// resumed multi-objective history is bit-identical to the one
			// that was journaled.
			out.obs = append(out.obs, core.Observation{Config: c, Value: ev.Value, Metrics: ev.Metrics, Objectives: ev.Objectives})
		}
		return out, nil

	case haveSnap:
		// Journal missing or garbled, but the snapshot alone can rebuild
		// the session up to its last compaction: resume from it and
		// rewrite a fresh tail.
		if jMissing {
			st.logf("hiperbotd: journal %s missing; rebuilding tail from snapshot (%d events)", jpath, snapHdr.Events)
		} else {
			st.logf("hiperbotd: journal %s: dropping %d unreadable byte(s) (torn header); rebuilding tail from snapshot (%d events)",
				jpath, tail.size, snapHdr.Events)
		}
		out.hdr = journalHeader{
			ID:        snapHdr.ID,
			Space:     snapHdr.Space,
			Options:   snapHdr.Options,
			CreatedAt: snapHdr.CreatedAt,
			Base:      snapHdr.Events,
		}
		out.sp = snapSp
		out.obs = snapObs
		out.rebuild = true
		return out, nil

	default:
		return nil, fmt.Errorf("%w: %s", errUnresumable, jpath)
	}
}
