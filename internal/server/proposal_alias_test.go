package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// aliasSpace is a 256-point grid: large enough that the proposal
// engine's draw count changes what it suggests.
func aliasSpace() *space.Space {
	return space.New(
		space.DiscreteInts("a", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("b", 0, 1, 2, 3, 4, 5, 6, 7),
		space.DiscreteInts("c", 0, 1, 2, 3),
	)
}

func aliasValue(c space.Config) float64 {
	return (c[0]-5)*(c[0]-5) + (c[1]-2)*(c[1]-2) + 0.5*(c[2]-1)*(c[2]-1)
}

// runAliasScript asks session id for counts[i] suggestions in turn,
// telling every batch before the next ask, and returns the key of
// every suggestion in order.
func runAliasScript(t *testing.T, srv http.Handler, id string, counts ...int) []string {
	t.Helper()
	sp := aliasSpace()
	var keys []string
	for _, n := range counts {
		var sug httpapi.SuggestResponse
		if code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/suggest",
			httpapi.SuggestRequest{Count: n}, &sug); code != http.StatusOK {
			t.Fatalf("suggest %d: HTTP %d", n, code)
		}
		var results []httpapi.Result
		for _, cfg := range sug.Candidates {
			c, err := sp.FromLabels(cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, sp.Key(c))
			results = append(results, httpapi.Result{Config: cfg, Value: aliasValue(c)})
		}
		if code := doJSON(t, srv, "POST", "/v1/sessions/"+id+"/observe",
			httpapi.ObserveRequest{Results: results}, nil); code != http.StatusOK {
			t.Fatalf("observe: HTTP %d", code)
		}
	}
	return keys
}

// createAliasSession creates a session on aliasSpace over HTTP.
func createAliasSession(t *testing.T, srv http.Handler, opts httpapi.SessionOptions) string {
	t.Helper()
	var resp httpapi.CreateSessionResponse
	if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
		Space: mustJSON(t, aliasSpace()), Options: opts,
	}, &resp); code != http.StatusCreated {
		t.Fatalf("create %+v: HTTP %d", opts, code)
	}
	return resp.ID
}

// TestProposalCandidatesAliasOverHTTP pins the deprecated wire field
// proposal_candidates: a proposal session created with it, and one
// created with candidate_samples, suggest the sequence recorded for
// proposal_candidates 37 before the two fields were merged, through
// the initial phase and model-phase asks of 1 and 4.
func TestProposalCandidatesAliasOverHTTP(t *testing.T) {
	want := []string{
		"2|7|1", "7|1|2", "3|5|0", "2|0|3", "3|4|2", "3|3|0", "7|3|2", "7|1|0",
		"6|3|2", "1|3|2", "7|2|2", "7|3|0", "6|1|0", "7|2|0", "0|3|2", "7|6|2",
	}
	srv, store := newTestServer(t, "")
	defer store.Close()
	for _, opts := range []httpapi.SessionOptions{
		{Seed: 4, InitialSamples: 6, Strategy: "proposal", ProposalCandidates: 37},
		{Seed: 4, InitialSamples: 6, Strategy: "proposal", CandidateSamples: 37},
	} {
		id := createAliasSession(t, srv, opts)
		got := runAliasScript(t, srv, id, 4, 2, 1, 4, 1, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("options %+v suggested\n%#v\nwant\n%#v", opts, got, want)
		}
	}
	// The pin is sensitive to the draw count: the default count
	// suggests something else.
	id := createAliasSession(t, srv, httpapi.SessionOptions{Seed: 4, InitialSamples: 6, Strategy: "proposal"})
	if got := runAliasScript(t, srv, id, 4, 2, 1, 4, 1, 4); reflect.DeepEqual(got, want) {
		t.Fatal("the default draw count suggests the pinned sequence: the pin does not show the alias")
	}
}

// aliasJournal renders a journal as a daemon that predates the merge
// of proposal_candidates into candidate_samples wrote it: a create
// header carrying options verbatim, then one event per evaluation.
func aliasJournal(t *testing.T, id, options string) string {
	t.Helper()
	sp := aliasSpace()
	var b strings.Builder
	fmt.Fprintf(&b, `{"event":"create","id":%q,"space":%s,"options":%s,"created_at":"2026-01-01T00:00:00Z"}`+"\n",
		id, mustJSON(t, sp), options)
	best := 0.0
	for i, c := range []space.Config{{1, 6, 0}, {4, 1, 3}, {7, 3, 1}, {2, 2, 2}, {5, 7, 0}, {0, 0, 3}} {
		v := aliasValue(c)
		if i == 0 || v < best {
			best = v
		}
		line, err := json.Marshal(core.RecorderEvent{Iteration: i, Config: sp.Labels(c), Value: v, BestSoFar: best})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestProposalCandidatesHeaderResumes resumes journals whose headers
// carry proposal_candidates. A count of 37 must go on suggesting what
// the daemon suggested before the merge; a negative count, which
// session creation used to accept, must not fail the boot.
func TestProposalCandidatesHeaderResumes(t *testing.T) {
	dir := t.TempDir()
	for id, options := range map[string]string{
		"alias":    `{"seed":4,"initial_samples":6,"strategy":"proposal","proposal_candidates":37}`,
		"negative": `{"seed":4,"initial_samples":6,"strategy":"proposal","proposal_candidates":-1}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, id+".jsonl"), []byte(aliasJournal(t, id, options)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, store := newTestServer(t, dir)
	defer store.Close()
	if store.Len() != 2 {
		t.Fatalf("resumed %d sessions, want 2", store.Len())
	}
	want := []string{
		"4|3|1", "4|1|1", "4|4|3", "3|5|3", "4|3|2", "6|3|1", "6|1|1", "1|3|1",
		"6|4|1", "4|2|1",
	}
	got := runAliasScript(t, srv, "alias", 1, 4, 1, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed session suggested\n%#v\nwant\n%#v", got, want)
	}
	var info httpapi.SessionInfo
	if code := doJSON(t, srv, "GET", "/v1/sessions/negative", nil, &info); code != http.StatusOK || info.Evaluations != 6 {
		t.Fatalf("negative-count session after restart: HTTP %d, %d evaluations", code, info.Evaluations)
	}
	if got := runAliasScript(t, srv, "negative", 4); len(got) != 4 {
		t.Fatalf("negative-count session suggested %v, want 4 candidates", got)
	}
}

// TestCreateRejectsNegativeProposalCandidates checks that a negative
// proposal_candidates fails creation with 400, as a negative
// candidate_samples does, and leaves no journal behind. Accepted, it
// would turn the session into uniform random search.
func TestCreateRejectsNegativeProposalCandidates(t *testing.T) {
	dir := t.TempDir()
	srv, store := newTestServer(t, dir)
	defer store.Close()
	for _, opts := range []httpapi.SessionOptions{
		{Strategy: "proposal", ProposalCandidates: -1},
		{Strategy: "proposal", CandidateSamples: -1},
	} {
		if code := doJSON(t, srv, "POST", "/v1/sessions", httpapi.CreateSessionRequest{
			Space: testSpaceJSON(t), Options: opts,
		}, nil); code != http.StatusBadRequest {
			t.Fatalf("create with %+v: HTTP %d, want 400", opts, code)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected creates left %v behind (%v)", entries, err)
	}
}
