package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// runTraced runs a workload's traced phase on a short clock.
func runTraced(t *testing.T, workload string, seed uint64) map[string]metric {
	t.Helper()
	out, err := workloads[workload](config{seed: seed, seconds: 200 * time.Millisecond, trace: true,
		work: t.TempDir(), traceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if out.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, out.failed, out.attempted, out.problems)
	}
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			t.Errorf("%s: per-layer metric %s missing", workload, m.name)
		}
	}
	return out.metrics
}

// exactCounts are the per-layer counts that must repeat exactly on the
// same seed; allocCounts may drift by allocTolerance.
var (
	exactCounts = []string{
		"splitloc.fragments", "partition.edge_cut", "partition.max_over_avg", "machine.model_day_s",
		"core.kernel_days_active", "core.kernel_days_dense",
		"charm.person_messages_per_day", "charm.location_messages_per_day", "charm.update_messages_per_day",
		"charm.wire_messages_per_day", "charm.bytes_per_day",
		"des.events_per_day", "des.interactions_per_day", "des.trials_per_day",
		"ensemble.simulated_day_ratio", "ensemble.checkpoint_builds",
		"client.result_bytes", "client.events_per_sweep",
	}
	allocCounts = []string{
		"core.allocs_per_person_day", "core.alloc_bytes_per_person_day",
		"core.allocs_per_replicate", "core.alloc_mb_per_replicate",
	}
)

const allocTolerance = 0.002

// TestDeterministicCounts runs each workload's traced phase twice on
// one seed: every count must repeat exactly, allocation counts within
// 0.2%, and the layers must account for the sweep's wall time within
// 10% where the benchmark reports the residual.
func TestDeterministicCounts(t *testing.T) {
	names := []string{"svc-fork", "sweep-cold", "engine-dense"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, b := runTraced(t, name, 7), runTraced(t, name, 7)
			for _, m := range exactCounts {
				if a[m].Value != b[m].Value {
					t.Errorf("%s: %v then %v", m, a[m].Value, b[m].Value)
				}
			}
			for _, m := range allocCounts {
				x, y := a[m].Value, b[m].Value
				if x <= 0 || math.Abs(x-y) > allocTolerance*x {
					t.Errorf("%s: %v then %v", m, x, y)
				}
			}
			// The service sweep is split into client, server and stream
			// layers; a library sweep into the executor's stages.
			m := "ensemble.unaccounted_ratio"
			if name == "svc-fork" {
				m = "client.unaccounted_ratio"
			}
			for _, v := range []float64{a[m].Value, b[m].Value} {
				if math.Abs(v) > 0.10 {
					t.Errorf("%s = %.3f: the layers leave more than 10%% of the wall time unaccounted", m, v)
				}
			}
		})
	}
}

// TestSecondSeed checks that a seed other than the default passes every
// output check and reports every end-to-end metric.
func TestSecondSeed(t *testing.T) {
	for name, run := range workloads {
		if testing.Short() && name == "engine-dense" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			out, err := run(config{seed: defaultSeed + 1, seconds: 200 * time.Millisecond,
				work: t.TempDir(), traceDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.problems)
			}
			for _, m := range declared(t).EndToEnd {
				got, ok := out.metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaration checks BENCHMARK.json against the code: the same
// workloads, and the same per-layer metrics with the same units.
func TestDeclaration(t *testing.T) {
	b := declared(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s not declared", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, implemented %d", names, len(workloads))
	}
	var got, want []string
	for _, m := range b.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%s\nin the code:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
