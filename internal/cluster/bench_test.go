// Cluster acceptance benchmarks: the scatter-gather summary over a
// one-million-device fleet scattered across 3 in-process members, against
// the same fleet on a single node. Both go through the full HTTP path, so
// the measured gap is the real cluster overhead: two loopback RPCs, the
// partial encode/decode, and the coordinator fold. The acceptance bound,
// cluster <= 10x single-node, is enforced by BenchmarkClusterVsSingle1M,
// so `make bench-cluster` fails when it is missed (the recorded snapshot
// is BENCH_10.json).

package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"act/internal/fleet"
	"act/internal/scenario"
	"act/internal/serve"
)

const benchDevices = 1_000_000

// maxClusterVsSingle is the acceptance bound on the cluster/single-node
// summary cost ratio.
const maxClusterVsSingle = 10

type benchEnv struct {
	clusterURL string // coordinator member
	singleURL  string // the single-node oracle
}

var (
	benchOnce sync.Once
	benchE    *benchEnv
	benchErr  error
)

// benchSetup builds both fleets once per process: devices are upserted
// straight into each owner's registry (placement decided by the cluster
// ring), which prices every device exactly like an HTTP ingest without
// paying a million loopback requests in setup.
func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	benchOnce.Do(func() {
		cfg := func() serve.Config {
			return serve.Config{
				Workers: 2,
				Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
			}
		}

		single := serve.New(cfg())
		sts := httptest.NewServer(single.Handler())

		const members = 3
		srvs := make([]*serve.Server, members)
		urls := make([]string, members)
		byURL := map[string]*serve.Server{}
		for i := range srvs {
			srvs[i] = serve.New(cfg())
			ts := httptest.NewServer(srvs[i].Handler())
			urls[i] = ts.URL
			byURL[ts.URL] = srvs[i]
		}
		for i, s := range srvs {
			if err := s.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls}); err != nil {
				benchErr = err
				return
			}
		}

		regions := []string{"united-states", "europe", "india", "world"}
		protos := make([]fleet.Device, 64)
		for i := range protos {
			protos[i] = fleet.Device{
				Region:      regions[i%len(regions)],
				Deployed:    time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
				Retired:     time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC),
				Utilization: 0.5,
				Spec: &scenario.Spec{
					Name:  fmt.Sprintf("bom-%d", i%32),
					Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(10 + i%32), Node: "7nm"}},
					DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
					Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
				},
			}
		}
		route := srvs[0].Cluster()
		for i := 0; i < benchDevices; i++ {
			dev := protos[i%len(protos)]
			dev.ID = fmt.Sprintf("dev-%07d", i)
			if _, err := single.Fleet().Upsert(dev); err != nil {
				benchErr = err
				return
			}
			if _, err := byURL[route.OwnerOf(dev.ID)].Fleet().Upsert(dev); err != nil {
				benchErr = err
				return
			}
		}

		// The benchmark only means something if the two surfaces agree.
		want, err := fetchSummary(sts.URL)
		if err != nil {
			benchErr = err
			return
		}
		got, err := fetchSummary(urls[0])
		if err != nil {
			benchErr = err
			return
		}
		if !bytes.Equal(want, got) {
			benchErr = fmt.Errorf("cluster and single-node summaries diverge at %d devices", benchDevices)
			return
		}
		benchE = &benchEnv{clusterURL: urls[0], singleURL: sts.URL}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE
}

func fetchSummary(base string) ([]byte, error) {
	return fetchBody(base + "/v1/fleet/summary")
}

func fetchBody(u string) ([]byte, error) {
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("summary answered %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

func benchSummary(b *testing.B, base string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fetchSummary(base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSummary1M: the scatter-gather summary, one coordinator
// and two loopback peers, over one million devices.
func BenchmarkClusterSummary1M(b *testing.B) {
	e := benchSetup(b)
	benchSummary(b, e.clusterURL)
}

// BenchmarkSingleSummary1M: the same fleet and the same HTTP path on one
// node — the denominator of the <=10x acceptance ratio.
func BenchmarkSingleSummary1M(b *testing.B) {
	e := benchSetup(b)
	benchSummary(b, e.singleURL)
}

// BenchmarkClusterVsSingle1M is the acceptance measurement: each
// iteration times one cluster summary and one single-node summary
// back-to-back and the ratio of the two accumulated clocks is reported
// as the cluster_vs_single metric. Interleaving the pair inside one
// sampling window means machine-load drift hits both sides equally —
// two separate benchmarks run minutes apart would fold scheduler noise
// straight into the ratio the <=10x bound is judged on. The benchmark
// fails when the ratio exceeds maxClusterVsSingle. b.Loop runs the
// function once, so the bound judges the measured run and never a
// one-iteration warm-up probe.
func BenchmarkClusterVsSingle1M(b *testing.B) {
	e := benchSetup(b)
	var clusterNS, singleNS time.Duration
	for b.Loop() {
		t0 := time.Now()
		if _, err := fetchSummary(e.clusterURL); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := fetchSummary(e.singleURL); err != nil {
			b.Fatal(err)
		}
		clusterNS += t1.Sub(t0)
		singleNS += time.Since(t1)
	}
	ratio := float64(clusterNS) / float64(singleNS)
	b.ReportMetric(ratio, "cluster_vs_single")
	b.ReportMetric(float64(clusterNS.Nanoseconds())/float64(b.N), "cluster_ns")
	b.ReportMetric(float64(singleNS.Nanoseconds())/float64(b.N), "single_ns")
	if ratio > maxClusterVsSingle {
		b.Fatalf("cluster_vs_single %.2f exceeds the bound %d", ratio, maxClusterVsSingle)
	}
}
