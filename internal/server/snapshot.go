package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// Snapshot files make restarts O(tail) instead of O(everything ever
// journaled): once a session's journal outgrows the configured
// threshold, its whole history is compacted into <id>.snap — a header
// line (create metadata + event count + checksum), one line of sparse
// extras (JSON), then the packed canonical observation columns
// (core.PackObservations) as raw little-endian float64 bytes — and
// the journal is rewritten to an empty tail whose header records how
// many events the snapshot covers. A restart then loads the snapshot
// and replays only the tail. The columns are deliberately binary, not
// base64-in-JSON: at 10k events the payload is most of a megabyte,
// and JSON scanning plus base64 decoding of a blob that size was the
// single largest line item in restart profiles.
//
// Both files are replaced atomically (write <name>.tmp, fsync,
// rename, fsync the directory), and always in snapshot-first order,
// so a crash at any instant leaves one of three resumable states:
// old journal only, snapshot + old journal (overlap skipped via the
// event counts), or snapshot + new tail. The journal is never the
// only copy of an event that the snapshot claims to hold.

// snapshotFormat versions the .snap layout.
const snapshotFormat = 1

// snapshotHeader is the first line of a .snap file. It repeats the
// journal's create metadata so a session remains resumable from the
// snapshot alone (e.g. when the tail journal was lost mid-rewrite).
type snapshotHeader struct {
	Event     string                 `json:"event"` // always "snapshot"
	Format    int                    `json:"format"`
	ID        string                 `json:"id"`
	Space     json.RawMessage        `json:"space"`
	Options   httpapi.SessionOptions `json:"options"`
	CreatedAt string                 `json:"created_at,omitempty"`
	// Events is the number of observations in the payload — the
	// journal-tail replay skips this many leading events when the tail
	// predates the snapshot (crash between snapshot and rewrite).
	Events int `json:"events"`
	// Checksum is the CRC-32C of everything after the header line
	// (extras line including its newline, then the binary columns),
	// hex-encoded. A mismatch fails the load: a half-written snapshot
	// can only exist as a .tmp file, so corruption here means disk
	// rot, not a crash, and silently resuming a truncated history
	// would be worse than failing.
	Checksum string `json:"checksum"`
}

func (st *Store) snapshotPath(id string) string {
	return filepath.Join(st.dir, id+".snap")
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // advisory; rename durability is best-effort on exotic filesystems
	d.Close()
}

// atomicWriteFile writes data to path via a .tmp sibling, fsync, and
// rename, then fsyncs the directory.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// writeSnapshotFile atomically replaces the session's snapshot with
// the current history (hdr supplies the create metadata). It returns
// the snapshot's size on disk.
func writeSnapshotFile(path string, hdr journalHeader, h *core.History) (int64, error) {
	packed := core.PackObservations(h.Observations())
	extras, err := json.Marshal(packed.Extras)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 0, len(extras)+1+len(packed.Configs)+len(packed.Values))
	payload = append(payload, extras...)
	payload = append(payload, '\n')
	payload = append(payload, packed.Configs...)
	payload = append(payload, packed.Values...)
	head, err := json.Marshal(snapshotHeader{
		Event:     "snapshot",
		Format:    snapshotFormat,
		ID:        hdr.ID,
		Space:     hdr.Space,
		Options:   hdr.Options,
		CreatedAt: hdr.CreatedAt,
		Events:    h.Len(),
		Checksum:  fmt.Sprintf("%08x", crc32.Checksum(payload, crc32cTable)),
	})
	if err != nil {
		return 0, err
	}
	// No trailing newline after the payload: the binary columns are
	// length-delimited by the header's event count, and a cosmetic
	// newline would be indistinguishable from a column byte.
	data := make([]byte, 0, len(head)+1+len(payload))
	data = append(data, head...)
	data = append(data, '\n')
	data = append(data, payload...)
	if err := atomicWriteFile(path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// readSnapshotFile loads and verifies a .snap file (see
// decodeSnapshot).
func readSnapshotFile(path string) (snapshotHeader, *space.Space, []core.Observation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshotHeader{}, nil, nil, err
	}
	return decodeSnapshot(data)
}

// decodeSnapshot parses and verifies the contents of a .snap file. The
// returned observations are exactly what was packed — bit-identical
// configs, values, metrics, and objective vectors. Any malformed input
// is an error, never a panic.
func decodeSnapshot(data []byte) (snapshotHeader, *space.Space, []core.Observation, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot header: %w", io.ErrUnexpectedEOF)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot header: %w", err)
	}
	if hdr.Event != "snapshot" || hdr.Format != snapshotFormat {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: not a format-%d snapshot (event %q, format %d)",
			snapshotFormat, hdr.Event, hdr.Format)
	}
	// The payload is checksummed byte-exact — no newline trimming: the
	// binary columns may legitimately end in 0x0a.
	payload := data[nl+1:]
	if sum := fmt.Sprintf("%08x", crc32.Checksum(payload, crc32cTable)); sum != hdr.Checksum {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot checksum mismatch (file %s, computed %s)", hdr.Checksum, sum)
	}
	sp, err := space.SpaceFromJSON(hdr.Space)
	if err != nil {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot space: %w", err)
	}
	// Layout after the header: one JSON line of sparse extras, then the
	// raw config and value columns, split by the sizes the header and
	// space imply.
	nl = bytes.IndexByte(payload, '\n')
	if nl < 0 {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot payload missing extras line")
	}
	var packed core.PackedObservations
	if err := json.Unmarshal(payload[:nl], &packed.Extras); err != nil {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot extras: %w", err)
	}
	// A checksum-valid header can still claim any event count, so the
	// column size is checked by division: n·(dims+1)·8 can overflow.
	bin := payload[nl+1:]
	n, row := hdr.Events, 8*(sp.NumParams()+1)
	if n < 0 || len(bin)%row != 0 || len(bin)/row != n {
		return snapshotHeader{}, nil, nil, fmt.Errorf("server: snapshot columns hold %d bytes, not %d events of %d parameters",
			len(bin), n, sp.NumParams())
	}
	cb := n * sp.NumParams() * 8
	packed.Configs, packed.Values = bin[:cb:cb], bin[cb:]
	obs, err := core.UnpackObservations(sp, packed, n)
	if err != nil {
		return snapshotHeader{}, nil, nil, err
	}
	return hdr, sp, obs, nil
}
