package server

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/internal/core"
	"github.com/hpcautotune/hiperbot/internal/httpapi"
	"github.com/hpcautotune/hiperbot/internal/objective"
)

// FuzzSessionOptions decodes session options as the create handler
// does and runs them through the checks create makes before it writes
// a journal header: checkCountBounds, TunerOptions, objective.ParseSet
// and core.ValidateGroups. Options all four accept build a tuner on
// testSpace, which must serve one Ask(1). The oracle: nothing panics;
// no negative count, and no count above its bound, gets past the
// checks and NewTuner; and a positive proposal_candidates, the
// deprecated alias, yields the core.Options that candidate_samples
// yields. The seeds are the option literals of the server tests, plus
// one count just past each bound.
func FuzzSessionOptions(f *testing.F) {
	for _, o := range []httpapi.SessionOptions{
		{Seed: 1, InitialSamples: 2},
		{Seed: 7, InitialSamples: 4, Strategy: "ranking"},
		{Seed: 5, InitialSamples: 4, Strategy: "proposal"},
		{Seed: 5, InitialSamples: 4, Strategy: "random"},
		{Seed: 5, InitialSamples: 4, Strategy: "geist"},
		{Seed: 5, InitialSamples: 4, Strategy: "gp"},
		{Seed: 3, InitialSamples: 6, Strategy: "grouped", Groups: [][]string{{"x"}, {"y"}}},
		{Strategy: "grouped", Groups: [][]string{{"x", "nope"}}},
		{Seed: 3, Strategy: "ranking", PoolCap: 256},
		{Strategy: "ranking", PoolCap: -1},
		{Seed: 3, InitialSamples: 4, Objectives: []string{"p95_latency_ms", "cost"}},
		{Objectives: []string{"p95_latency_ms", "nope"}},
		{Seed: 7, InitialSamples: 8, Liar: "min"},
		{Strategy: "simulated-annealing"},
		{Seed: 4, InitialSamples: 6, Strategy: "proposal", ProposalCandidates: 37},
		{Seed: 4, InitialSamples: 6, Strategy: "proposal", CandidateSamples: 37},
		{Strategy: "proposal", ProposalCandidates: -1},
		{CandidateSamples: -1},
		{Strategy: "ranking", PoolCap: core.DefaultEnumerateLimit + 1},
		{Strategy: "proposal", CandidateSamples: core.DefaultEnumerateLimit + 1},
		{Strategy: "proposal", ProposalCandidates: core.DefaultEnumerateLimit + 1},
		{Bins: maxBins + 1},
	} {
		data, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"strategy":"proposal","proposal_candidates":37,"candidate_samples":5}`))
	sp := testSpace()
	f.Fuzz(func(t *testing.T, data []byte) {
		var o httpapi.SessionOptions
		if decodeJSON(data, &o) != nil {
			return
		}
		opts, err := TunerOptions(o)
		if err == nil && o.ProposalCandidates > 0 {
			alias := o
			if alias.CandidateSamples == 0 {
				alias.CandidateSamples = o.ProposalCandidates
			}
			alias.ProposalCandidates = 0
			want, werr := TunerOptions(alias)
			if werr != nil || !reflect.DeepEqual(opts, want) {
				t.Fatalf("proposal_candidates %d gives %+v; candidate_samples %d gives %+v, %v",
					o.ProposalCandidates, opts, alias.CandidateSamples, want, werr)
			}
		}
		if err == nil {
			err = checkCountBounds(o)
		}
		if err == nil {
			_, err = objective.ParseSet(o.Objectives)
		}
		if err == nil {
			err = core.ValidateGroups(sp, o.Groups)
		}
		var tn *core.Tuner
		if err == nil {
			tn, err = core.NewTuner(sp, testValue, opts)
		}
		if o.InitialSamples < 0 || o.CandidateSamples < 0 || o.ProposalCandidates < 0 || o.Bins < 0 {
			if err == nil {
				t.Fatalf("options %s with a negative count were accepted", data)
			}
			return
		}
		if o.PoolCap > core.DefaultEnumerateLimit || o.CandidateSamples > core.DefaultEnumerateLimit ||
			o.ProposalCandidates > core.DefaultEnumerateLimit || o.Bins > maxBins {
			if err == nil {
				t.Fatalf("options %s with a count above its bound were accepted", data)
			}
			return
		}
		if err != nil {
			return
		}
		picks, err := core.NewAskTell(tn).Ask(1, time.Minute, time.Unix(0, 0))
		if err != nil || len(picks) != 1 {
			t.Fatalf("options %s: Ask(1) = %v, %v", data, picks, err)
		}
	})
}
