package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// The checker's positive control: a corrupted expectation must be counted
// as a failure, for every kind of check the workloads use.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := newSetup(w, 7)
			if len(s.warmupFailures) > 0 {
				t.Fatalf("warm-up failed: %v", s.warmupFailures)
			}
			inst := &s.insts[0]
			if inst.bag != nil {
				for k := range inst.bag {
					inst.bag[k]++ // one result tuple more than the oracle's
					break
				}
			} else {
				inst.want++
			}
			pr := runPass(s, nil)
			want := 0
			for _, q := range s.queries {
				if q.inst == 0 {
					want++
				}
			}
			if len(pr.failures) != want {
				t.Fatalf("%d failures, want %d (one per query on the corrupted instance): %v", len(pr.failures), want, pr.failures)
			}
		})
	}
}

// A load or round count that differs from the warm-up pass is a failure.
func TestPaperMetricDriftFails(t *testing.T) {
	s := newSetup(workloads[1], 7)
	s.ref[0].load++
	if pr := runPass(s, nil); len(pr.failures) != 1 {
		t.Fatalf("%d failures, want 1: %v", len(pr.failures), pr.failures)
	}
}

// The negative control: a short pass of each workload fails nothing, and
// its paper metrics are the same at data-plane width 1 and at the default
// width, traced or not.
func TestShortPassesAreClean(t *testing.T) {
	defer runtime.SetParallelism(runtime.SetParallelism(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := newSetup(w, 3)
			if len(s.warmupFailures) > 0 {
				t.Fatalf("warm-up failed: %v", s.warmupFailures)
			}
			base := runPass(s, nil)
			runtime.SetParallelism(1)
			serial := runPass(s, newTracer())
			runtime.SetParallelism(0)
			for _, pr := range []passResult{base, serial} {
				if len(pr.failures) > 0 {
					t.Fatalf("failures: %v", pr.failures)
				}
			}
			if base.sums != serial.sums {
				t.Fatalf("sums differ across widths: %+v vs %+v", base.sums, serial.sums)
			}
		})
	}
}

// A slow spell that hits fewer than half of the batches leaves pass_ms_p90
// where it was, though it moves the whole-run 90th percentile.
func TestBatchedP90IgnoresSlowSpell(t *testing.T) {
	walls := make([]float64, 10*p90Batch)
	for i := range walls {
		walls[i] = 100 + float64(i%10)
	}
	clean, k := batchedP90(walls)
	for i := 4 * p90Batch; i < 6*p90Batch; i++ {
		walls[i] *= 3
	}
	spell, _ := batchedP90(walls)
	if k != 10 || spell != clean {
		t.Fatalf("%d batches, p90 %v before the spell and %v with it", k, clean, spell)
	}
	if whole := quantile(walls, 0.9); whole < 2*clean {
		t.Fatalf("whole-run p90 %v: the spell should have moved it", whole)
	}
}

// Both kinds of run print, as the last line, one JSON object with exactly
// the result keys, whose metrics are exactly the ones BENCHMARK.json
// declares for that kind.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "catalog-small", "--seed", "5", "--seconds", "0.05",
			"--trace", []string{"0", "1"}[trace], "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if keys := sortedKeys(res); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("trace %d: result keys %v", trace, keys)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d: %v", trace, len(metrics), len(want), sortedKeys(metrics))
		}
		for _, m := range want {
			got, ok := metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("trace %d: metric %s missing", trace, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("trace %d: metric %s has unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
