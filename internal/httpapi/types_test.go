package httpapi

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzResultRoundTrip checks the extended multi-metric Result wire
// type encodes and re-decodes losslessly: the exact float bits of
// Value and every metric survive, and absent metrics stay absent
// (nil, not empty) so legacy payloads are byte-identical to before the
// field existed. Strings survive as encoding/json documents: valid
// UTF-8 unchanged, each invalid byte as U+FFFD (see wireString).
func FuzzResultRoundTrip(f *testing.F) {
	f.Add("x", "3", 1.5, "p95_latency_ms", 12.25, true)
	f.Add("alpha", "low", 0.0, "cost", -0.75, false)
	f.Add("", "", math.MaxFloat64, "throughput_rps", math.SmallestNonzeroFloat64, true)
	f.Add("k", "v", -1e-300, "m", 1e300, true)
	f.Add("\xc1", "a\xed\xa0\x80b", 2.0, "\xc1\xff", 3.0, true)
	f.Fuzz(func(t *testing.T, key, label string, value float64, metric string, mv float64, withMetrics bool) {
		if math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(mv) || math.IsInf(mv, 0) {
			t.Skip("non-finite floats are rejected upstream and not encodable as JSON")
		}
		in := Result{Config: map[string]string{key: label}, Value: value}
		if withMetrics {
			in.Metrics = map[string]float64{metric: mv}
		}
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var out Result
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		want := Result{Config: map[string]string{wireString(key): wireString(label)}, Value: value}
		if withMetrics {
			want.Metrics = map[string]float64{wireString(metric): mv}
		}
		if !reflect.DeepEqual(want, out) {
			t.Fatalf("round trip changed the result:\nwant %+v\nout  %+v\nwire %s", want, out, data)
		}
		if !withMetrics {
			var raw map[string]json.RawMessage
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
			if _, present := raw["metrics"]; present {
				t.Fatalf("metric-less result leaked a metrics field: %s", data)
			}
		}
	})
}

// wireString is s as a JSON round trip returns it. encoding/json
// coerces strings to valid UTF-8 by replacing each invalid byte with
// U+FFFD, which is what converting through []rune does.
func wireString(s string) string { return string([]rune(s)) }

// TestObserveResponseParetoFrontOmitted pins single-objective wire
// compatibility: a response without a front marshals without the
// field.
func TestObserveResponseParetoFrontOmitted(t *testing.T) {
	data, err := json.Marshal(ObserveResponse{Added: 1, Evaluations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["pareto_front"]; present {
		t.Fatalf("single-objective response leaked pareto_front: %s", data)
	}
}

// TestSplitList pins the comma-list flag syntax shared by the CLIs:
// items are trimmed, empty items dropped, and no items is nil.
func TestSplitList(t *testing.T) {
	for in, want := range map[string][]string{
		"":                        nil,
		" , ,":                    nil,
		"p95_latency_ms":          {"p95_latency_ms"},
		" p95_latency_ms , cost,": {"p95_latency_ms", "cost"},
		"http://a:1,http://b:2":   {"http://a:1", "http://b:2"},
	} {
		if got := SplitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitList(%q) = %q, want %q", in, got, want)
		}
	}
}
