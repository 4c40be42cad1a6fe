package main

// Per-layer metrics of a traced run. Handler and transport times come from
// the traced phases' front door; every other layer is timed by calling its
// public function from here on the same inputs the traffic used. Each
// operation's unattributed remainder is its mean handler time minus the
// mean replayed times of the layers it passes through.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"act/internal/cluster"
	"act/internal/colbatch"
	"act/internal/fleet"
	"act/internal/metrics"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/script"
)

// timing is the median and mean of a set of call durations, in µs.
type timing struct{ med, mean float64 }

// timeCalls times f(i) for i in [0, n), reps times over, after one
// untimed call.
func timeCalls(n, reps int, f func(i int) error) (timing, error) {
	if err := f(0); err != nil {
		return timing{}, err
	}
	ds := make([]float64, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return timing{}, err
			}
			ds = append(ds, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return summarize(ds), nil
}

func summarize(us []float64) timing {
	sum := 0.0
	for _, v := range us {
		sum += v
	}
	return timing{med: median(us), mean: sum / float64(len(us))}
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// layers derives the per-layer metrics from the untraced window w and the
// traced design and fleet phases d and f.
func (b *bench) layers(w, d, f *phase) ([]metric, error) {
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// Time inside actd's handler, and the rest of each round trip.
	handler := [nOps]timing{}
	for k := opKind(0); k < nOps; k++ {
		ph := d
		if k >= opIngest {
			ph = f
		}
		handler[k] = summarize(durationsUS(ph.handler[k]))
		add("serve."+opNames[k]+"_handler_us", handler[k].med, "us")
	}
	transport := func(ph *phase, k opKind) float64 {
		diff := make([]float64, len(ph.lat[k]))
		for i := range diff {
			diff[i] = float64((ph.lat[k][i] - ph.handler[k][i]).Nanoseconds()) / 1e3
		}
		return median(diff)
	}
	add("http.footprint_transport_us", transport(d, opFootprint), "us")
	add("http.summary_transport_us", transport(f, opSummary), "us")

	// Every batch scenario is a lookup and a miss, so the single requests'
	// own hit ratio has the lookups less the batch scenarios as its base.
	singleLookups := d.lookups - float64(batchSize*d.attempted[opBatch])
	hitRatio := d.hits / singleLookups
	add("cache.hit_ratio", hitRatio, "ratio")
	add("cache.lookups", singleLookups, "count")

	// Design layers, replayed on the batch, single, sweep and script inputs.
	dd := b.d
	batchSpecs, singleSpecs := dd.batchSpecs(), dd.singleSpecs()
	parse, err := timeCalls(batchCount, 2, func(i int) error {
		_, _, err := scenario.ParseRequest(bytes.NewReader(dd.batches[i]))
		return err
	})
	if err != nil {
		return nil, err
	}
	key, _ := timeCalls(batchCount, 2, func(i int) error {
		for _, s := range batchSpecs[i] {
			_ = s.CanonicalKey()
		}
		return nil
	})
	// colbatch.Eval, then the batch handler's copy of each document out of
	// the pooled arena and its join into one answer, timed apart.
	var evalUS, encodeUS []float64
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < batchCount; i++ {
			start := time.Now()
			r := colbatch.Eval(batchSpecs[i])
			evalUS = append(evalUS, float64(time.Since(start).Nanoseconds())/1e3)
			if _, err := r.FirstErr(); err != nil {
				r.Close()
				return nil, err
			}
			start = time.Now()
			var buf bytes.Buffer
			buf.WriteByte('[')
			for j := 0; j < r.Len(); j++ {
				if j > 0 {
					buf.WriteByte(',')
				}
				buf.Write(bytes.TrimRight(bytes.Clone(r.Doc(j)), "\n"))
			}
			buf.WriteString("]\n")
			encodeUS = append(encodeUS, float64(time.Since(start).Nanoseconds())/1e3)
			r.Close()
		}
	}
	eval, enc := summarize(evalUS), summarize(encodeUS)
	perScenario := func(t timing) timing { return timing{t.med / batchSize, t.mean / batchSize} }
	parseS, keyS := perScenario(parse), perScenario(key)
	add("scenario.parse_us_per_scenario", parseS.med, "us")
	add("scenario.key_us_per_scenario", keyS.med, "us")
	add("colbatch.eval_ns_per_scenario", perScenario(eval).med*1e3, "ns")
	add("batch.encode_us", enc.med, "us")
	add("batch.unattributed_us", handler[opBatch].mean-parse.mean-key.mean-eval.mean-enc.mean, "us")

	idx := checkIndices(dd)
	result, err := timeCalls(len(idx), 1, func(i int) error {
		_, err := singleSpecs[idx[i]].Result()
		return err
	})
	if err != nil {
		return nil, err
	}
	add("scenario.result_us", result.med, "us")
	add("footprint.unattributed_us",
		handler[opFootprint].mean-parseS.mean-keyS.mean-(1-hitRatio)*result.mean, "us")

	rank, err := timeCalls(sweepCount, 2, func(i int) error {
		for _, m := range metrics.All() {
			if _, err := metrics.Rank(m, dd.sweepCands[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pareto, err := timeCalls(sweepCount, 2, func(i int) error {
		_, err := paretoFrontier(dd.sweepCands[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	add("metrics.rank_us", rank.med, "us")
	add("dse.pareto_us", pareto.med, "us")
	add("sweep.unattributed_us", handler[opSweep].mean-rank.mean-pareto.mean, "us")

	scriptT, err := timeCalls(scriptCount, 2, func(i int) error {
		_, err := script.Eval(context.Background(), dd.scriptSrcs[i], script.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	add("script.eval_us", scriptT.med, "us")
	add("script.steps", float64(dd.scriptSteps), "count")
	add("script.unattributed_us", handler[opScript].mean-scriptT.mean, "us")

	fl, err := b.fleetLayers()
	if err != nil {
		return nil, err
	}
	cl, err := b.clusterLayers()
	if err != nil {
		return nil, err
	}
	add("fleet.ingest_us_per_device", fl.ingest.med/updateSize, "us")
	add("fleet.query_us", fl.query.med, "us")
	add("fleet.topk_us", fl.topk.med, "us")
	add("fleet.heap_bytes_per_device", fl.heapPerDevice, "B")
	add("report.encode_us", fl.encode.med, "us")
	add("cluster.fetch_partials_us", cl.fetch.med, "us")
	add("cluster.fold_us", cl.fold.med, "us")
	add("cluster.ingest_us_per_device", cl.ingest.med/updateSize, "us")
	add("ingest.unattributed_us", handler[opIngest].mean-fl.ingest.mean, "us")
	add("summary.unattributed_us", handler[opSummary].mean-fl.query.mean-fl.encode.mean, "us")
	add("top.unattributed_us", handler[opTop].mean-fl.topk.mean-fl.encodeTop.mean, "us")

	// Go runtime cost of the untraced window, client included, and the
	// request bodies the benchmark holds through the window.
	add("runtime.alloc_bytes_per_op", float64(w.totalAlloc)/float64(w.ops()), "B")
	add("runtime.gc_cycles_per_kop", float64(w.numGC)*1000/float64(w.ops()), "count")
	add("bench.inputs_mib", b.inputMiB(b.design), "MiB")
	return ms, nil
}

type fleetTimings struct {
	ingest, query, topk, encode, encodeTop timing
	heapPerDevice                          float64
}

// fleetLayers replays the fleet inputs into a fresh registry.
func (b *bench) fleetLayers() (fleetTimings, error) {
	var ft fleetTimings
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reg := fleet.New(fleet.Config{})
	for _, chunk := range b.f.bulk {
		if _, err := reg.IngestNDJSON(bytes.NewReader(chunk), 0); err != nil {
			return ft, fmt.Errorf("replay bulk ingest: %w", err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ft.heapPerDevice = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / fleetDevices

	var err error
	if ft.ingest, err = timeCalls(64, 1, func(i int) error {
		_, err := reg.IngestNDJSON(bytes.NewReader(b.f.updates[i]), 0)
		return err
	}); err != nil {
		return ft, err
	}
	var doc, top report.FleetSummaryJSON
	if ft.query, err = timeCalls(300, 1, func(int) (err error) {
		doc, err = reg.Query(fleet.Query{GroupBy: "region"})
		return err
	}); err != nil {
		return ft, err
	}
	if ft.topk, err = timeCalls(40, 1, func(int) (err error) {
		top, err = reg.Query(fleet.Query{TopK: topK})
		return err
	}); err != nil {
		return ft, err
	}
	var buf bytes.Buffer
	ft.encode, _ = timeCalls(300, 1, func(int) error { buf.Reset(); return report.Encode(&buf, doc) })
	ft.encodeTop, _ = timeCalls(40, 1, func(int) error { buf.Reset(); return report.Encode(&buf, top) })
	runtime.KeepAlive(reg)
	return ft, nil
}

type clusterTimings struct {
	fetch, fold, ingest timing
}

// clusterLayers times the cluster's public functions on member 0 of a
// 3-member cluster started and bulk-loaded for the replay. The gather is
// the coordinator's: its own partial directly, the peers' over HTTP.
func (b *bench) clusterLayers() (clusterTimings, error) {
	var ct clusterTimings
	topo, err := startTopology(3)
	if err != nil {
		return ct, err
	}
	defer topo.close()
	if err := bulkLoad(b.admin, topo.front(), b.f); err != nil {
		return ct, err
	}
	c := topo.members[0].srv.Cluster()
	ctx := context.Background()
	var parts []cluster.Partial
	if ct.fetch, err = timeCalls(100, 1, func(int) error {
		var missing []string
		parts, missing, err = c.GatherPartials(ctx, 0, "region")
		if err == nil && len(missing) > 0 {
			err = fmt.Errorf("cluster gather missed %v", missing)
		}
		return err
	}); err != nil {
		return ct, err
	}
	if ct.fold, err = timeCalls(300, 1, func(int) error {
		_, err := cluster.Fold(fleet.Query{GroupBy: "region"}, parts)
		return err
	}); err != nil {
		return ct, err
	}
	const ingests = 32
	if ct.ingest, err = timeCalls(ingests, 1, func(i int) error {
		_, err := c.Ingest(ctx, bytes.NewReader(b.f.updates[i]), 0)
		return err
	}); err != nil {
		return ct, err
	}
	// The cluster's summaries must be byte-identical to a registry fed the
	// same NDJSON in the same order: update body 0 (the untimed call), then
	// bodies 0 to 31.
	o, err := newFleetOracle(b.f)
	if err != nil {
		return ct, err
	}
	for i := -1; i < ingests; i++ {
		if err := o.apply(b.f, max(i, 0)); err != nil {
			return ct, err
		}
	}
	if err := checkFleet(b.admin, topo.front(), o); err != nil {
		return ct, fmt.Errorf("cluster: %w", err)
	}
	return ct, nil
}
