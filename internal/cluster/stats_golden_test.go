package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// daemonFixture decodes the daemon's fully populated /v1/stats golden —
// exactly the bytes a gateway reads off a backend.
func daemonFixture(t testing.TB) client.StatsReply {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "server", "testdata", "stats.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st client.StatsReply
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fleetFixture merges two backends — the daemon fixture and a younger,
// smaller one without a population store, with a kernel the first never
// ran and only two histogram families — plus an empty reply.
func fleetFixture(t *testing.T) client.StatsReply {
	a := daemonFixture(t)
	b := daemonFixture(t)
	b.UptimeSec = 99999.5
	b.QueueDepth = 1
	b.PopulationStore = nil
	b.KernelDays = map[string]int64{"dense": 10, "hybrid": 3}
	b.Histograms = b.Histograms[:2]
	var fleet client.StatsReply
	for _, st := range []client.StatsReply{a, b, {}} {
		mergeStats(&fleet, st)
	}
	return fleet
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// normalizeProm rewrites every sample's value in its shortest float
// form: two scrapes normalize equal exactly when their HELP/TYPE lines,
// series, labels and order match and every sample parses to the same
// float64.
func normalizeProm(t *testing.T, text string) []byte {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparsable sample %q: %v", line, err)
			}
			line = line[:i+1] + strconv.FormatFloat(v, 'g', -1, 64)
		}
		out.WriteString(line + "\n")
	}
	return []byte(out.String())
}

// TestFleetMergeGolden pins the gateway's aggregate /v1/stats body.
func TestFleetMergeGolden(t *testing.T) {
	got, err := json.MarshalIndent(fleetFixture(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_stats.golden.json", append(got, '\n'))
}

// TestGatewayMetricsGolden pins the gateway's /metrics text (runtime
// block aside) over the merged fleet fixture.
func TestGatewayMetricsGolden(t *testing.T) {
	st := StatsReply{
		StatsReply: fleetFixture(t),
		Gateway: GatewayStats{
			UptimeSec: 512.5, BackendsTotal: 3, BackendsHealthy: 2, FleetHealthy: 1,
			Submitted: 70, Rerouted: 12, Spilled: 4, ThrottledRate: 13, ThrottledInflight: 2,
		},
		Backends: []BackendStatus{
			{Name: "node-0", URL: "http://10.0.0.1:8321", Healthy: true, Routed: 40, QueueDepth: 1},
			{Name: "node-1", URL: "http://10.0.0.2:8321", Healthy: true, Routed: 25},
			{Name: "node-2", URL: "http://10.0.0.3:8321", Routed: 5, QueueDepth: 6},
		},
	}
	slo := []obs.SLOStatus{{Name: "event-delivery", Objective: 0.999, Windows: []obs.SLOWindow{
		{Window: "5m", ErrorRate: 0.002, BurnRate: 2}, {Window: "1h"}}}}
	proxy := obs.NewHistogramVec("episim_gw_proxy_seconds", "Gateway proxy latency.", "backend", nil)
	proxy.With("node-0").Observe(0.003)
	proxy.With("node-1").Observe(0.75)
	var buf bytes.Buffer
	writeGatewayMetrics(&buf, st, slo, proxy.Snapshots())
	checkGolden(t, "gateway_metrics.golden.txt", normalizeProm(t, buf.String()))
}
