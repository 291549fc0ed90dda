package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// newCompactingServer is newTestServer with explicit persistence
// behavior (snapshot thresholds, live-session cap).
func newCompactingServer(t testing.TB, dir string, cfg StoreConfig) (*Server, *Store) {
	t.Helper()
	store, err := OpenStoreWithConfig(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(store, nil), store
}

func sessionFiles(t *testing.T, dir, id string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), id+".") {
			out = append(out, e.Name())
		}
	}
	return out
}

func statusInfo(t *testing.T, srv *Server, id string) httpapi.SessionInfo {
	t.Helper()
	var info httpapi.SessionInfo
	if code := doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, &info); code != 200 {
		t.Fatalf("status %s: HTTP %d", id, code)
	}
	return info
}

// suggestLabels leases k candidates and returns their label maps.
func suggestLabels(t *testing.T, srv *Server, id string, k int) []map[string]string {
	t.Helper()
	body, err := json.Marshal(httpapi.SuggestRequest{Count: k})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/suggest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("suggest %s: HTTP %d: %s", id, rec.Code, rec.Body.String())
	}
	var sug httpapi.SuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sug); err != nil {
		t.Fatal(err)
	}
	return sug.Candidates
}

// TestSnapshotCompactionRoundTrip drives a session past the event
// threshold and checks the full compaction contract: snapshot file on
// disk, journal truncated to a tail whose header carries the base,
// SessionInfo reporting the split, and a restart resuming everything.
func TestSnapshotCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{SnapshotEvents: 4}
	srv, store := newCompactingServer(t, dir, cfg)
	id := createTestSession(t, srv, "compact", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, id, 10, 2)

	// On disk: a snapshot plus a tail journal whose header records the
	// snapshot's coverage.
	hdr, _, obs, err := readSnapshotFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if hdr.Events != len(obs) || hdr.Events < 4 {
		t.Fatalf("snapshot covers %d events (payload %d), want >= 4 and equal", hdr.Events, len(obs))
	}
	tail, err := readJournalFile(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !tail.hdrOK || tail.hdr.Base != hdr.Events {
		t.Fatalf("tail base %d, want snapshot events %d", tail.hdr.Base, hdr.Events)
	}
	if hdr.Events+len(tail.events) != 10 {
		t.Fatalf("snapshot %d + tail %d events, want 10 total", hdr.Events, len(tail.events))
	}

	info := statusInfo(t, srv, id)
	if info.SnapshotEvents != hdr.Events || info.JournalTailEvents != 10-hdr.Events {
		t.Fatalf("info reports snapshot %d / tail %d, want %d / %d",
			info.SnapshotEvents, info.JournalTailEvents, hdr.Events, 10-hdr.Events)
	}
	if info.SnapshotBytes <= 0 {
		t.Fatalf("info.SnapshotBytes = %d, want > 0", info.SnapshotBytes)
	}
	best := info.Best
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: snapshot + tail replay to the same state, and the
	// session keeps working (duplicate-free suggestions against the
	// 16-config space prove the evaluated set was restored).
	srv2, store2 := newCompactingServer(t, dir, cfg)
	defer store2.Close()
	info2 := statusInfo(t, srv2, id)
	if info2.Evaluations != 10 {
		t.Fatalf("resumed %d evaluations, want 10", info2.Evaluations)
	}
	if !reflect.DeepEqual(info2.Best, best) {
		t.Fatalf("resumed best %+v, want %+v", info2.Best, best)
	}
	drive(t, srv2, id, 14, 2)
	if got := statusInfo(t, srv2, id).Evaluations; got != 14 {
		t.Fatalf("post-restart drive reached %d evaluations, want 14", got)
	}
}

// TestRestartBitIdenticalAfterCompaction is the golden restart check:
// an identically-seeded control session that never restarts and a
// compacted session reopened from snapshot + tail must emit identical
// model-phase suggestion sequences.
func TestRestartBitIdenticalAfterCompaction(t *testing.T) {
	opts := httpapi.SessionOptions{Seed: 7, InitialSamples: 4, Strategy: "ranking"}
	ctrlSrv, ctrlStore := newTestServer(t, "")
	defer ctrlStore.Close()
	ctrlID := createTestSession(t, ctrlSrv, "golden", opts)
	drive(t, ctrlSrv, ctrlID, 8, 1)

	dir := t.TempDir()
	cfg := StoreConfig{SnapshotEvents: 3}
	srv, store := newCompactingServer(t, dir, cfg)
	id := createTestSession(t, srv, "golden", opts)
	drive(t, srv, id, 8, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, store2 := newCompactingServer(t, dir, cfg)
	defer store2.Close()

	want := suggestLabels(t, ctrlSrv, ctrlID, 4)
	got := suggestLabels(t, srv2, id, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restart suggestions diverge:\n got %v\nwant %v", got, want)
	}
	// Golden pin: the ranking engine's model-phase argmax on this seed
	// and history. If an intentional engine change moves these, update
	// the pin — an unintentional move is a replay-fidelity regression.
	golden := []map[string]string{
		{"x": "1", "y": "2"},
		{"x": "3", "y": "2"},
		{"x": "0", "y": "0"},
		{"x": "0", "y": "3"},
	}
	if !reflect.DeepEqual(want, golden) {
		t.Fatalf("control suggestions moved off the golden pin:\n got %v\nwant %v", want, golden)
	}
}

// TestEvictRehydrateBitIdentical checks LRU eviction end to end: a
// capped store evicts the idle session, requests on it rehydrate from
// snapshot + tail, and the rehydrated session's suggestions match an
// uncapped control that never left memory.
func TestEvictRehydrateBitIdentical(t *testing.T) {
	opts := httpapi.SessionOptions{Seed: 11, InitialSamples: 4, Strategy: "ranking"}
	ctrlSrv, ctrlStore := newTestServer(t, "")
	defer ctrlStore.Close()
	ctrlID := createTestSession(t, ctrlSrv, "a", opts)
	drive(t, ctrlSrv, ctrlID, 8, 1)

	dir := t.TempDir()
	cfg := StoreConfig{SnapshotEvents: 64, MaxLiveSessions: 1}
	srv, store := newCompactingServer(t, dir, cfg)
	defer store.Close()
	id := createTestSession(t, srv, "a", opts)
	drive(t, srv, id, 4, 1)
	// Touching a second session evicts "a" mid-run (cap 1)...
	other := createTestSession(t, srv, "b", httpapi.SessionOptions{Seed: 2})
	if store.LiveLen() != 1 {
		t.Fatalf("live sessions = %d, want 1 under cap", store.LiveLen())
	}
	// ...and continuing to drive "a" rehydrates it transparently.
	drive(t, srv, id, 8, 1)
	suggestLabels(t, srv, other, 1) // flip LRU again: evict "a" once more
	got := suggestLabels(t, srv, id, 4)
	want := suggestLabels(t, ctrlSrv, ctrlID, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evict+rehydrate suggestions diverge from never-evicted control:\n got %v\nwant %v", got, want)
	}
	ss := store.Stats()
	if ss.Evictions == 0 || ss.Rehydrations == 0 {
		t.Fatalf("stats = %+v, want evictions and rehydrations > 0", ss)
	}
	if ss.Sessions != 2 {
		t.Fatalf("stats.Sessions = %d, want 2", ss.Sessions)
	}
}

// TestEvictedSessionListingAndMetrics checks that evicted sessions
// stay visible: the list serves their eviction-time info (marked
// evicted, no rehydration), /healthz counts them, and /metrics carries
// the persistence counters.
func TestEvictedSessionListingAndMetrics(t *testing.T) {
	dir := t.TempDir()
	srv, store := newCompactingServer(t, dir, StoreConfig{SnapshotEvents: 4, MaxLiveSessions: 1})
	defer store.Close()
	a := createTestSession(t, srv, "cold", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, a, 6, 2)
	b := createTestSession(t, srv, "hot", httpapi.SessionOptions{Seed: 2})
	_ = b

	var list httpapi.SessionListResponse
	if code := doJSON(t, srv, "GET", "/v1/sessions", nil, &list); code != 200 {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("list has %d sessions, want 2 (evicted included)", len(list.Sessions))
	}
	var cold *httpapi.SessionInfo
	for i := range list.Sessions {
		if list.Sessions[i].ID == "cold" {
			cold = &list.Sessions[i]
		}
	}
	if cold == nil || !cold.Evicted {
		t.Fatalf("evicted session missing or not marked: %+v", cold)
	}
	if cold.Evaluations != 6 || cold.SnapshotEvents == 0 {
		t.Fatalf("evicted info = %+v, want 6 evaluations and a snapshot", cold)
	}
	before := store.Stats()

	var m httpapi.MetricsResponse
	if code := doJSON(t, srv, "GET", "/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if m.Sessions != 2 || m.LiveSessions != 1 {
		t.Fatalf("metrics sessions=%d live=%d, want 2/1", m.Sessions, m.LiveSessions)
	}
	if m.EvictionsTotal == 0 || m.SnapshotCompactionsTotal == 0 {
		t.Fatalf("metrics evictions=%d compactions=%d, want both > 0", m.EvictionsTotal, m.SnapshotCompactionsTotal)
	}
	if m.Evaluations != 6 {
		t.Fatalf("metrics evaluations=%d, want 6 (evicted sessions counted)", m.Evaluations)
	}

	// A status request on the evicted session rehydrates it.
	info := statusInfo(t, srv, "cold")
	if info.Evicted || info.Evaluations != 6 {
		t.Fatalf("rehydrated info = %+v, want live with 6 evaluations", info)
	}
	if got := store.Stats().Rehydrations; got != before.Rehydrations+1 {
		t.Fatalf("rehydrations = %d, want %d", got, before.Rehydrations+1)
	}
}

// TestCorruptEvictedSessionAnswers500: an evicted session whose
// snapshot fails its checksum is still listed, so every session route
// answers 500, not 404 (the client would report a live session as
// gone) or 409.
func TestCorruptEvictedSessionAnswers500(t *testing.T) {
	dir := t.TempDir()
	srv, store := newCompactingServer(t, dir, StoreConfig{SnapshotEvents: 4, MaxLiveSessions: 1})
	defer store.Close()
	id := createTestSession(t, srv, "cold", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, id, 6, 2)
	createTestSession(t, srv, "hot", httpapi.SessionOptions{Seed: 2}) // evicts "cold"
	spath := store.snapshotPath(id)
	data, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(spath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := map[string]string{"x": "0", "y": "0"}
	for _, r := range []struct {
		method, path string
		body         any
	}{
		{"GET", "", nil},
		{"POST", "/suggest", httpapi.SuggestRequest{Count: 1}},
		{"POST", "/observe", httpapi.ObserveRequest{Results: []httpapi.Result{{Config: cfg, Value: 1}}}},
		{"POST", "/renew", httpapi.RenewRequest{Configs: []map[string]string{cfg}}},
		{"GET", "/importance", nil},
	} {
		if code := doJSON(t, srv, r.method, "/v1/sessions/"+id+r.path, r.body, nil); code != http.StatusInternalServerError {
			t.Errorf("%s /v1/sessions/%s%s on a corrupt evicted session: HTTP %d, want 500", r.method, id, r.path, code)
		}
	}
	var list httpapi.SessionListResponse
	if code := doJSON(t, srv, "GET", "/v1/sessions", nil, &list); code != 200 || len(list.Sessions) != 2 {
		t.Fatalf("list: HTTP %d, %d sessions; want both still listed", code, len(list.Sessions))
	}
}

// TestChoppedTailResume kills the final journal line mid-byte (the
// crash-mid-append signature) and checks the session resumes from the
// intact prefix, with the torn bytes truncated away and a warning
// logged.
func TestChoppedTailResume(t *testing.T) {
	dir := t.TempDir()
	srv, store := newTestServer(t, dir)
	id := createTestSession(t, srv, "torn", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, id, 6, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, id+".jsonl")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last event line roughly in half.
	cut := len(raw) - 1 - (len(raw)-strings.LastIndex(string(raw[:len(raw)-1]), "\n"))/2
	if err := os.WriteFile(jpath, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	cfg := StoreConfig{Logf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}}
	srv2, store2 := newCompactingServer(t, dir, cfg)
	defer store2.Close()
	info := statusInfo(t, srv2, id)
	if info.Evaluations != 5 {
		t.Fatalf("resumed %d evaluations, want 5 (torn 6th dropped)", info.Evaluations)
	}
	torn := false
	for _, w := range warnings {
		if strings.Contains(w, "torn") {
			torn = true
		}
	}
	if !torn {
		t.Fatalf("no torn-line warning logged; got %q", warnings)
	}
	// The journal was truncated to the intact prefix, so appending
	// works and a further restart is clean.
	drive(t, srv2, id, 7, 1)
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	_, store3 := newCompactingServer(t, dir, StoreConfig{})
	defer store3.Close()
	s, err := store3.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Info().Evaluations; got != 7 {
		t.Fatalf("second resume has %d evaluations, want 7", got)
	}
}

// TestGarbledJournalWithoutSnapshotSkipped checks the unresumable
// case: a journal with no parseable header and no snapshot behind it
// is set aside as *.corrupt instead of failing the whole store open.
func TestGarbledJournalWithoutSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("not json at all\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, store := newCompactingServer(t, dir, StoreConfig{})
	defer store.Close()
	if store.Len() != 0 {
		t.Fatalf("store resumed %d sessions from garbage, want 0", store.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.jsonl.corrupt")); err != nil {
		t.Fatalf("garbled journal not set aside: %v", err)
	}
}

// TestRestartAfterCrashMidCompaction simulates a kill -9 in each
// window of the compaction protocol and checks every state resumes to
// the full history.
func TestRestartAfterCrashMidCompaction(t *testing.T) {
	opts := httpapi.SessionOptions{Seed: 3, InitialSamples: 2}

	// Window 1: crash before the snapshot rename — leftover .tmp files
	// beside an intact journal are removed at open, nothing lost.
	t.Run("tmp-leftovers", func(t *testing.T) {
		dir := t.TempDir()
		srv, store := newTestServer(t, dir)
		id := createTestSession(t, srv, "w1", opts)
		drive(t, srv, id, 6, 2)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{id + ".snap.tmp", id + ".jsonl.tmp"} {
			if err := os.WriteFile(filepath.Join(dir, n), []byte("half-written"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv2, store2 := newCompactingServer(t, dir, StoreConfig{})
		defer store2.Close()
		if got := statusInfo(t, srv2, id).Evaluations; got != 6 {
			t.Fatalf("resumed %d evaluations, want 6", got)
		}
		for _, n := range sessionFiles(t, dir, id) {
			if strings.HasSuffix(n, ".tmp") {
				t.Fatalf("temp file %s survived store open", n)
			}
		}
	})

	// Window 2: crash after the snapshot rename but before the journal
	// rewrite — snapshot plus the OLD full journal. The overlap is
	// skipped via the event counts.
	t.Run("snapshot-plus-old-journal", func(t *testing.T) {
		dir := t.TempDir()
		cfg := StoreConfig{SnapshotEvents: 4}
		srv, store := newCompactingServer(t, dir, cfg)
		id := createTestSession(t, srv, "w2", opts)
		drive(t, srv, id, 4, 1) // not yet compacted at 3, compacts at 4
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		// Reconstruct the pre-rewrite journal: the create header (base
		// 0) plus every event the snapshot now covers, as if the tail
		// rewrite never landed.
		hdr, _, _, err := readSnapshotFile(filepath.Join(dir, id+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Events != 4 {
			t.Fatalf("snapshot covers %d events, want 4", hdr.Events)
		}
		srv2, store2 := newCompactingServer(t, dir, cfg)
		tailPath := filepath.Join(dir, id+".jsonl")
		drive(t, srv2, id, 6, 1)
		tail, err := readJournalFile(tailPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store2.Close(); err != nil {
			t.Fatal(err)
		}
		// Overwrite the tail with an old-style journal claiming base 0
		// and holding only a prefix (events that were buffered at
		// snapshot time never hit the old file — the documented crash
		// shape). Snapshot covers 4; old journal has the 2 post-snapshot
		// events recorded with base 4 → rewrite them as a base-0 file
		// missing the snapshotted prefix is NOT the crash shape; instead
		// simulate: old journal = header(base 0) + nothing (all 4 events
		// buffered and only in the snapshot), tail events lost... the
		// recoverable guarantee is everything the snapshot covers.
		var buf strings.Builder
		oldHdr := tail.hdr
		oldHdr.Base = 0
		if err := writeHeader(&buf, oldHdr); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tailPath, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		srv3, store3 := newCompactingServer(t, dir, cfg)
		defer store3.Close()
		if got := statusInfo(t, srv3, id).Evaluations; got != 4 {
			t.Fatalf("resumed %d evaluations, want the snapshot's 4", got)
		}
		drive(t, srv3, id, 8, 1)
		_ = srv2
	})

	// Window 3: crash after the snapshot rename with the journal
	// missing entirely (rename target lost) — the session rebuilds from
	// the snapshot alone and rewrites a fresh tail.
	t.Run("snapshot-only", func(t *testing.T) {
		dir := t.TempDir()
		cfg := StoreConfig{SnapshotEvents: 4}
		srv, store := newCompactingServer(t, dir, cfg)
		id := createTestSession(t, srv, "w3", opts)
		drive(t, srv, id, 4, 1)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, id+".jsonl")); err != nil {
			t.Fatal(err)
		}
		srv2, store2 := newCompactingServer(t, dir, cfg)
		defer store2.Close()
		if got := statusInfo(t, srv2, id).Evaluations; got != 4 {
			t.Fatalf("resumed %d evaluations from snapshot alone, want 4", got)
		}
		tail, err := readJournalFile(filepath.Join(dir, id+".jsonl"))
		if err != nil {
			t.Fatalf("rebuilt tail journal: %v", err)
		}
		if !tail.hdrOK || tail.hdr.Base != 4 {
			t.Fatalf("rebuilt tail base %d, want 4", tail.hdr.Base)
		}
		drive(t, srv2, id, 8, 1)
	})

	// Not a crash shape: a tail header whose base is negative. Replaying
	// it would skip more events than the tail holds and silently drop
	// acknowledged evaluations, so the store refuses to open.
	t.Run("negative-base", func(t *testing.T) {
		dir := t.TempDir()
		cfg := StoreConfig{SnapshotEvents: 10}
		srv, store := newCompactingServer(t, dir, cfg)
		id := createTestSession(t, srv, "neg", opts)
		drive(t, srv, id, 10, 1)
		drive(t, srv, id, 15, 1)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		jpath := filepath.Join(dir, id+".jsonl")
		raw, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(raw, []byte(`"base":10`)) {
			t.Fatalf("tail header does not carry base 10:\n%s", raw)
		}
		if err := os.WriteFile(jpath, bytes.Replace(raw, []byte(`"base":10`), []byte(`"base":-5`), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		store2, err := OpenStoreWithConfig(dir, cfg)
		if err == nil {
			n := store2.Stats().Evaluations
			store2.Close()
			t.Fatalf("store opened a tail with base -5 (%d of 15 evaluations)", n)
		}
		if !strings.Contains(err.Error(), "negative base") {
			t.Fatalf("open error %q does not name the negative base", err)
		}
	})
}

// TestDeleteRemovesSnapshotFiles checks that deleting a session —
// live or evicted — leaves no files behind: journal, snapshot, and
// temp siblings all go.
func TestDeleteRemovesSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	srv, store := newCompactingServer(t, dir, StoreConfig{SnapshotEvents: 4, MaxLiveSessions: 1})
	defer store.Close()

	a := createTestSession(t, srv, "della", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(t, srv, a, 6, 2) // compacted: journal + snapshot on disk
	// Plant temp leftovers as a crash would.
	for _, n := range []string{a + ".snap.tmp", a + ".jsonl.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b := createTestSession(t, srv, "dellb", httpapi.SessionOptions{Seed: 2, InitialSamples: 2})
	drive(t, srv, b, 6, 2)
	// Driving b evicted a (cap 1): delete one evicted and one live
	// session and check the directory is clean of both.
	if code := doJSON(t, srv, "DELETE", "/v1/sessions/"+a, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete evicted: HTTP %d", code)
	}
	if left := sessionFiles(t, dir, a); len(left) != 0 {
		t.Fatalf("evicted-session delete left %v on disk", left)
	}
	if code := doJSON(t, srv, "DELETE", "/v1/sessions/"+b, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete live: HTTP %d", code)
	}
	if left := sessionFiles(t, dir, b); len(left) != 0 {
		t.Fatalf("live-session delete left %v on disk", left)
	}
	if store.Len() != 0 {
		t.Fatalf("store still holds %d sessions", store.Len())
	}
	if code := doJSON(t, srv, "GET", "/v1/sessions/"+a, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status of deleted evicted session: HTTP %d, want 404", code)
	}
}

// TestMultiMetricSnapshotRoundTrip compacts a multi-objective session
// and checks the restart preserves metrics maps, objective vectors,
// and the Pareto front exactly.
func TestMultiMetricSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{SnapshotEvents: 3}
	srv, store := newCompactingServer(t, dir, cfg)
	opts := httpapi.SessionOptions{Seed: 5, InitialSamples: 2, Objectives: []string{"p95_latency_ms", "cost"}}
	id := createTestSession(t, srv, "momo", opts)
	driveMetrics(t, srv, id, 8, 2)
	before := statusInfo(t, srv, id)
	if len(before.ParetoFront) == 0 {
		t.Fatal("no Pareto front before restart")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, store2 := newCompactingServer(t, dir, cfg)
	defer store2.Close()
	after := statusInfo(t, srv2, id)
	if !reflect.DeepEqual(after.ParetoFront, before.ParetoFront) {
		t.Fatalf("Pareto front diverged across restart:\n got %+v\nwant %+v", after.ParetoFront, before.ParetoFront)
	}
	if !reflect.DeepEqual(after.Best, before.Best) {
		t.Fatalf("best diverged across restart: got %+v want %+v", after.Best, before.Best)
	}
}

// TestEvictionRaceStress hammers a capped store from many goroutines
// so suggest/observe/status race eviction and single-flight
// rehydration. Run with -race; the invariants checked at the end are
// secondary to the detector.
func TestEvictionRaceStress(t *testing.T) {
	dir := t.TempDir()
	srv, store := newCompactingServer(t, dir, StoreConfig{SnapshotEvents: 3, MaxLiveSessions: 2})
	defer store.Close()

	const nSessions = 6
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = createTestSession(t, srv, fmt.Sprintf("race%d", i),
			httpapi.SessionOptions{Seed: uint64(i + 1), InitialSamples: 2})
	}

	sp := testSpace()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var server5xx []string
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := ids[(w+i)%nSessions]
				switch i % 3 {
				case 0, 1:
					var sug httpapi.SuggestResponse
					code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/suggest",
						httpapi.SuggestRequest{Count: 1}, &sug)
					if code >= 500 {
						mu.Lock()
						server5xx = append(server5xx, fmt.Sprintf("suggest %s: %d", id, code))
						mu.Unlock()
						continue
					}
					if code != 200 || len(sug.Candidates) == 0 {
						continue // exhausted or conflict: fine under stress
					}
					c, err := sp.FromLabels(sug.Candidates[0])
					if err != nil {
						t.Error(err)
						return
					}
					code = doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe", httpapi.ObserveRequest{
						Results: []httpapi.Result{{Config: sug.Candidates[0], Value: testValue(c)}},
					}, nil)
					if code >= 500 {
						mu.Lock()
						server5xx = append(server5xx, fmt.Sprintf("observe %s: %d", id, code))
						mu.Unlock()
					}
				case 2:
					doJSON(t, srv, "GET", "/v1/sessions/"+id, nil, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(server5xx) > 0 {
		t.Fatalf("%d server errors under eviction stress; first: %s", len(server5xx), server5xx[0])
	}
	if got := store.LiveLen(); got > 2 {
		t.Fatalf("live sessions = %d, want <= cap 2", got)
	}
	if errs := store.JournalErrors(); len(errs) > 0 {
		t.Fatalf("journal errors after stress: %v", errs)
	}
	// Every session still resumes cleanly after the storm.
	for _, id := range ids {
		info := statusInfo(t, srv, id)
		if info.Evaluations < 0 {
			t.Fatalf("session %s info broken: %+v", id, info)
		}
	}
}

// craftSnapshot returns a .snap file with a valid checksum over an
// empty extras line and no columns, whose header claims events
// observations of the given space.
func craftSnapshot(tb testing.TB, sp *space.Space, events int) []byte {
	tb.Helper()
	spaceJSON, err := json.Marshal(sp)
	if err != nil {
		tb.Fatal(err)
	}
	payload := []byte("null\n")
	head, err := json.Marshal(snapshotHeader{
		Event: "snapshot", Format: snapshotFormat, ID: "crafted", Space: spaceJSON, Events: events,
		Checksum: fmt.Sprintf("%08x", crc32.Checksum(payload, crc32cTable)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return append(append(head, '\n'), payload...)
}

// FuzzReadSnapshotFile feeds arbitrary file contents to decodeSnapshot,
// the decoder behind readSnapshotFile. It must never panic, and a file
// it accepts must hold exactly the columns its observations pack to.
// The seeds are a snapshot written by a real compaction and three
// checksum-valid headers whose event counts are negative or overflow
// the column size.
func FuzzReadSnapshotFile(f *testing.F) {
	dir := f.TempDir()
	srv, store := newCompactingServer(f, dir, StoreConfig{SnapshotEvents: 4})
	id := createTestSession(f, srv, "fuzz", httpapi.SessionOptions{Seed: 1, InitialSamples: 2})
	drive(f, srv, id, 10, 2)
	if err := store.Close(); err != nil {
		f.Fatal(err)
	}
	compacted, err := os.ReadFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compacted)
	params := func(n int) *space.Space {
		ps := make([]space.Param, n)
		for i := range ps {
			ps[i] = space.DiscreteInts(string(rune('a'+i)), 0, 1, 2)
		}
		return space.New(ps...)
	}
	for _, tc := range []struct{ params, events int }{{3, 1 << 59}, {1, 1 << 61}, {1, -1}} {
		data := craftSnapshot(f, params(tc.params), tc.events)
		if _, _, _, err := decodeSnapshot(data); err == nil {
			f.Fatalf("decoded a snapshot claiming %d events of %d parameters with no columns", tc.events, tc.params)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, sp, obs, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if len(obs) != hdr.Events {
			t.Fatalf("decoded %d observations from a header claiming %d", len(obs), hdr.Events)
		}
		packed := core.PackObservations(obs)
		cols := append(packed.Configs, packed.Values...)
		if len(cols) != len(obs)*(sp.NumParams()+1)*8 || !bytes.HasSuffix(data, cols) {
			t.Fatalf("%d decoded observations re-pack to columns the file does not end with", len(obs))
		}
	})
}

// FuzzReadJournalFile feeds arbitrary journal contents to
// readJournalFile and, beside a snapshot of 8 events, to
// loadSessionState. Reading must never panic, and the intact prefix it
// reports must end on a line boundary within the file. A state the
// loader accepts must hold exactly the snapshot's observations plus
// the tail events the snapshot does not cover: tail event j is
// observation base+1+j, and the snapshot covers observations 1 to 8,
// so a tail event numbered 0 or below is one the loader may not drop.
// The seeds are a real compaction's tail (base 8), the same tail with
// a negative base, and a never-compacted journal.
func FuzzReadJournalFile(f *testing.F) {
	opts := httpapi.SessionOptions{Seed: 1, InitialSamples: 2}
	dir := f.TempDir()
	srv, store := newCompactingServer(f, dir, StoreConfig{SnapshotEvents: 4})
	id := createTestSession(f, srv, "fuzz", opts)
	drive(f, srv, id, 10, 1)
	plain := createTestSession(f, srv, "plain", httpapi.SessionOptions{Seed: 2, InitialSamples: 20})
	drive(f, srv, plain, 3, 1)
	if err := store.Close(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		f.Fatal(err)
	}
	snapHdr, _, snapObs, err := decodeSnapshot(snap)
	if err != nil || snapHdr.Events != 8 {
		f.Fatalf("seed snapshot: %d events, %v", snapHdr.Events, err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, id+".jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Contains(tail, []byte(`"base":8`)) {
		f.Fatalf("seed tail does not carry base 8:\n%s", tail)
	}
	full, err := os.ReadFile(filepath.Join(dir, plain+".jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tail)
	f.Add(bytes.Replace(tail, []byte(`"base":8`), []byte(`"base":-5`), 1))
	f.Add(full)

	// Inputs run one at a time per process, so they share one directory
	// holding the snapshot; each input rewrites the journal beside it.
	work := f.TempDir()
	if err := os.WriteFile(filepath.Join(work, "s.snap"), snap, 0o644); err != nil {
		f.Fatal(err)
	}
	st := &Store{dir: work, logf: func(string, ...any) {}}
	jpath := filepath.Join(work, "s.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(jpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jt, err := readJournalFile(jpath)
		if err != nil {
			return
		}
		if jt.size != int64(len(data)) || jt.validLen > jt.size || (jt.validLen > 0 && data[jt.validLen-1] != '\n') {
			t.Fatalf("intact prefix of %d bytes in a %d-byte file (read size %d) does not end a line", jt.validLen, len(data), jt.size)
		}
		state, err := st.loadSessionState("s")
		if err != nil {
			return
		}
		var replayed []core.RecorderEvent
		for j, ev := range jt.events {
			if n := jt.hdr.Base + 1 + j; n < 1 || n > len(snapObs) {
				replayed = append(replayed, ev)
			}
		}
		if want := len(snapObs) + len(replayed); len(state.obs) != want {
			t.Fatalf("loaded %d observations from a snapshot of %d and a tail of %d at base %d; want %d",
				len(state.obs), len(snapObs), len(jt.events), jt.hdr.Base, want)
		}
		if !reflect.DeepEqual(state.obs[:len(snapObs)], snapObs) {
			t.Fatal("loaded observations do not start with the snapshot's")
		}
		for j, ev := range replayed {
			if got := state.obs[len(snapObs)+j].Value; got != ev.Value {
				t.Fatalf("replayed tail event %d has value %v, journal %v", j, got, ev.Value)
			}
		}
	})
}
