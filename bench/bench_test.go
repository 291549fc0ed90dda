package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcautotune/hiperbot/client"
	"github.com/hpcautotune/hiperbot/internal/space"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json's workload and
// metric lists to the ones the command runs and reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if m.Name != code[i].Name || m.Unit != code[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, m.Name, m.Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestShortRunsEmitEveryMetric runs every workload at short size,
// untraced and traced, through the command itself, and checks that
// each summary line carries every BENCHMARK.json metric with its unit,
// that every gate passed, and that the traced run's spans nest.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, traced := range []string{"0", "1"} {
		dir := t.TempDir()
		spans := filepath.Join(dir, "spans.jsonl")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{
			"-workload", "all", "-short", "-seconds", "1", "-trace", traced,
			"-spans", spans, "-record", filepath.Join(dir, "record.json"), "-workdir", dir,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\nstderr: %s\nstdout: %s", traced, code, stderr.String(), stdout.String())
		}
		var summaries []map[string]any
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "{") {
				var m map[string]any
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					t.Fatalf("summary line %q: %v", line, err)
				}
				summaries = append(summaries, m)
			}
		}
		if len(summaries) != len(bf.Workloads) {
			t.Fatalf("trace %s: %d summary lines for %d workloads", traced, len(summaries), len(bf.Workloads))
		}
		want := bf.EndToEnd
		if traced == "1" {
			want = bf.PerLayer
		}
		for i, s := range summaries {
			if s["correct"] != true || s["failed"].(float64) != 0 || s["attempted"].(float64) < 1 {
				t.Errorf("trace %s workload %d: summary %v", traced, i, s)
			}
			metrics := s["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("trace %s workload %d: %d metrics, want %d", traced, i, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name].(map[string]any)
				if !ok || got["unit"] != m.Unit {
					t.Errorf("trace %s workload %d: metric %s = %v, want unit %s", traced, i, m.Name, got, m.Unit)
				}
			}
		}
		if traced == "1" {
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var all []span
			for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
				var s span
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatal(err)
				}
				all = append(all, s)
			}
			if len(all) == 0 {
				t.Fatal("traced run wrote no spans")
			}
			if err := checkNesting(all); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestSerialPassesBitIdentical checks that the serial workload's
// suggestion sequences agree across the untraced HTTP run, the direct
// core.Tuner replay, and traced passes A, B and C.
func TestSerialPassesBitIdentical(t *testing.T) {
	e := &env{seed: 7, seconds: time.Second, trace: true, short: true, dir: t.TempDir(), spans: newSpanLog("serial")}
	rep, err := workloads[0].run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"matches_direct_tuner", "pass_a_matches_untraced", "pass_b_matches_untraced", "pass_c_matches_untraced"}
	for _, name := range want {
		found := false
		for _, g := range rep.Gates {
			if g.Name == name {
				found = true
				if !g.OK {
					t.Errorf("gate %s failed: %s", name, g.Detail)
				}
			}
		}
		if !found {
			t.Errorf("gate %s missing", name)
		}
	}
}

// dupBackend wraps a backend and hands out its first suggestion again
// on the third suggest call.
type dupBackend struct {
	backend
	calls int
	first space.Config
}

func (d *dupBackend) suggest(ctx context.Context, i, k int) ([]space.Config, error) {
	d.calls++
	if d.calls == 3 {
		return []space.Config{d.first}, nil
	}
	cfgs, err := d.backend.suggest(ctx, i, k)
	if d.calls == 1 && len(cfgs) > 0 {
		d.first = cfgs[0]
	}
	return cfgs, err
}

func TestInjectedDuplicateTripsGate(t *testing.T) {
	sp := syntheticSpace(3, 4)
	d, err := startDaemon("", httpSizes{}.storeConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.discard()
	ctx := context.Background()
	if _, err := d.cl.CreateSessionFromSpace(ctx, "dup", sp, client.SessionOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	be := &dupBackend{backend: &httpBackend{cl: d.cl, sp: sp, ids: []string{"dup"}, lease: time.Minute}}
	res := drive(ctx, plan{sp: sp, shape: perSession, sessions: 1, clients: 1, batch: 1, targets: []int{6}}, be)
	if _, ok, detail := noDuplicates(res, d.store.Stats().DuplicateSuggestions); ok {
		t.Fatalf("duplicate not caught: %s", detail)
	}
	if res.dups != 1 {
		t.Fatalf("counted %d duplicates, want 1", res.dups)
	}
}

func TestNestingRejectsEscapingSpan(t *testing.T) {
	spans := []span{
		{Name: "root", Trace: 1, ID: 1, StartNS: 10, EndNS: 20},
		{Name: "child", Trace: 1, ID: 2, Parent: 1, StartNS: 15, EndNS: 25},
	}
	if err := checkNesting(spans); err == nil {
		t.Error("child ending after its parent passed")
	}
	spans[1].EndNS, spans[1].Trace = 18, 2
	if err := checkNesting(spans); err == nil {
		t.Error("child with another trace id passed")
	}
	spans[1].Trace = 1
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
}
