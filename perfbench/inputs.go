package main

// Every request body the benchmark sends, and every answer it checks
// against, is generated here from the workload seed before any clock
// starts. The same seed always yields the same bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"act/internal/colbatch"
	"act/internal/conform"
	"act/internal/fleet"
	"act/internal/metrics"
	"act/internal/scenario"
	"act/internal/script"
	"act/internal/units"
)

// Design-space inputs. The single-request working set is four times the
// actd footprint cache (4096 entries) and is drawn with Zipf skew, so the
// cache hit ratio sits between 0 and 1. Batch scenarios are disjoint from
// the singles and cycle through more distinct scenarios than the cache
// holds, so every batch scenario is a miss and colbatch does the work.
const (
	workingSet      = 16384
	zipfS           = 1.1
	drawCount       = 1 << 17
	batchSize       = 256
	batchCount      = 32
	sweepSize       = 1000
	sweepCount      = 16
	scriptSize      = 200
	scriptCount     = 16
	singlesPerRound = 64 // single requests per design round
)

// Fleet inputs: about 20k devices over 256 distinct BoMs, bulk-loaded in
// chunks under actd's default 10000-device ingest limit, and 100-device
// replace bodies that each rewrite a disjoint slice of the fleet.
const (
	fleetDevices  = 20000
	fleetBoMs     = 256
	bulkChunk     = 5000
	updateSize    = 100
	updateBodies  = fleetDevices / updateSize
	summariesPerI = 8 // summary requests per fleet iteration
	itersPerRound = 8 // fleet iterations per round; one top-K per round
	topK          = 10
)

// subSeed derives an independent corpus seed for one input family.
func subSeed(seed uint64, family uint64) uint64 {
	z := seed ^ (family * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// designInputs keeps only what the traffic sends, plus small expected
// answers: scenario structs and large oracle documents are regenerated
// when a check or replay needs them, so the benchmark's own heap stays
// small beside actd's during the window.
type designInputs struct {
	seed         uint64
	singles      [][]byte
	draws        []int32 // skewed sequence of working-set indices
	hot          []int32 // working-set indices by popularity, hottest first
	batches      [][]byte
	sweepCands   [][]metrics.Candidate
	sweeps       [][]byte
	sweepDocs    [][]byte
	scriptSrcs   []string
	scripts      [][]byte
	scriptDocs   [][]byte
	scriptSteps  int64 // evaluator steps of program 0
	primeBatches [][]byte
}

func genDesign(seed uint64) (*designInputs, error) {
	d := &designInputs{seed: seed}
	singleSpecs := d.singleSpecs()
	d.singles = make([][]byte, workingSet)
	for i, s := range singleSpecs {
		b, err := scenario.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("single %d: %w", i, err)
		}
		d.singles[i] = b
	}

	rng := rand.New(rand.NewSource(int64(subSeed(seed, 2))))
	perm := rng.Perm(workingSet)
	d.hot = make([]int32, workingSet)
	for r, idx := range perm {
		d.hot[r] = int32(idx)
	}
	z := rand.NewZipf(rng, zipfS, 1, workingSet-1)
	d.draws = make([]int32, drawCount)
	for i := range d.draws {
		d.draws[i] = d.hot[z.Uint64()]
	}
	// Set-up primes the cache with the hottest cache-full of singles.
	for lo := 0; lo < 4096; lo += batchSize {
		specs := make([]*scenario.Spec, batchSize)
		for j := range specs {
			specs[j] = singleSpecs[d.hot[lo+j]]
		}
		b, err := batchBody(specs)
		if err != nil {
			return nil, err
		}
		d.primeBatches = append(d.primeBatches, b)
	}

	for _, specs := range d.batchSpecs() {
		body, err := batchBody(specs)
		if err != nil {
			return nil, err
		}
		d.batches = append(d.batches, body)
	}

	cands := conform.GenerateCorpus(subSeed(seed, 4), sweepSize*sweepCount)
	emb := make([]float64, len(cands))
	if err := colbatch.EmbodiedTotals(cands, emb); err != nil {
		return nil, fmt.Errorf("sweep embodied totals: %w", err)
	}
	drng := rand.New(rand.NewSource(int64(subSeed(seed, 5))))
	for k := 0; k < sweepCount; k++ {
		req := sweepRequest{Rank: []string{"all"}, Pareto: []string{"embodied", "energy", "delay"}}
		for i := k * sweepSize; i < (k+1)*sweepSize; i++ {
			s := cands[i]
			area := 1.0
			for _, l := range s.Logic {
				area += l.AreaMM2
			}
			req.Candidates = append(req.Candidates, sweepCandidate{
				Name:      fmt.Sprintf("cand-%05d", i),
				EmbodiedG: emb[i],
				EnergyJ:   s.Usage.PowerW * s.Usage.AppHours * 3600,
				DelayS:    float64(1+drng.Intn(100000)) / 1000,
				AreaMM2:   area,
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		want, cs, err := expectedSweep(req)
		if err != nil {
			return nil, fmt.Errorf("sweep oracle: %w", err)
		}
		d.sweeps = append(d.sweeps, body)
		d.sweepDocs = append(d.sweepDocs, want)
		d.sweepCands = append(d.sweepCands, cs)
	}

	sspecs := conform.GenerateCorpus(subSeed(seed, 6), scriptSize*scriptCount)
	for k := 0; k < scriptCount; k++ {
		src, err := sweepProgram(sspecs[k*scriptSize : (k+1)*scriptSize])
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Source string `json:"source"`
		}{src})
		if err != nil {
			return nil, err
		}
		res, err := script.Eval(context.Background(), src, script.Options{})
		if err != nil {
			return nil, fmt.Errorf("script oracle: %w", err)
		}
		var want bytes.Buffer
		if err := res.Encode(&want); err != nil {
			return nil, err
		}
		if k == 0 {
			d.scriptSteps = res.Steps
		}
		d.scriptSrcs = append(d.scriptSrcs, src)
		d.scripts = append(d.scripts, body)
		d.scriptDocs = append(d.scriptDocs, want.Bytes())
	}
	return d, nil
}

// singleSpecs regenerates the single-request working set.
func (d *designInputs) singleSpecs() []*scenario.Spec {
	return conform.GenerateCorpus(subSeed(d.seed, 1), workingSet)
}

// batchSpecs regenerates the batch scenarios, one slice per batch.
func (d *designInputs) batchSpecs() [][]*scenario.Spec {
	all := conform.GenerateCorpus(subSeed(d.seed, 3), batchSize*batchCount)
	out := make([][]*scenario.Spec, batchCount)
	for b := range out {
		out[b] = all[b*batchSize : (b+1)*batchSize]
	}
	return out
}

// batchBody renders specs as one /v1/footprint batch array.
func batchBody(specs []*scenario.Spec) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, s := range specs {
		b, err := scenario.Marshal(s)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(bytes.TrimRight(b, "\n"))
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// colbatchDocs evaluates specs through the columnar engine and copies the
// result documents out of its pooled arena.
func colbatchDocs(specs []*scenario.Spec) ([][]byte, error) {
	out := make([][]byte, 0, len(specs))
	for lo := 0; lo < len(specs); lo += colbatch.DefaultChunk {
		r := colbatch.Eval(specs[lo:min(lo+colbatch.DefaultChunk, len(specs))])
		if i, err := r.FirstErr(); err != nil {
			r.Close()
			return nil, fmt.Errorf("scenario %d: %w", lo+i, err)
		}
		for i := 0; i < r.Len(); i++ {
			out = append(out, bytes.Clone(r.Doc(i)))
		}
		r.Close()
	}
	return out, nil
}

// joinDocs renders result documents the way actd answers a batch.
func joinDocs(docs [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, d := range docs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(bytes.TrimRight(d, "\n"))
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// sweepProgram is a /v1/script design sweep: the scenarios as literals,
// priced in one batched footprint() call, folded to a total.
func sweepProgram(specs []*scenario.Spec) (string, error) {
	var buf bytes.Buffer
	buf.WriteString("let specs = [\n")
	for i, s := range specs {
		b, err := scenario.Marshal(s)
		if err != nil {
			return "", err
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		if err := json.Compact(&buf, b); err != nil {
			return "", err
		}
	}
	buf.WriteString(`
]
let docs = footprint(specs)
let total = 0
for d in docs {
  total = total + d["total_g"]
}
total
`)
	return buf.String(), nil
}

// The /v1/sweep wire types, mirrored so the benchmark can render the
// expected answer byte for byte.
type sweepRequest struct {
	Candidates []sweepCandidate `json:"candidates"`
	Rank       []string         `json:"rank,omitempty"`
	Pareto     []string         `json:"pareto,omitempty"`
}

type sweepCandidate struct {
	Name      string  `json:"name"`
	EmbodiedG float64 `json:"embodied_g"`
	EnergyJ   float64 `json:"energy_j"`
	DelayS    float64 `json:"delay_s"`
	AreaMM2   float64 `json:"area_mm2,omitempty"`
}

type sweepResponse struct {
	Rankings []sweepRanking `json:"rankings,omitempty"`
	Pareto   []string       `json:"pareto,omitempty"`
}

type sweepRanking struct {
	Metric string       `json:"metric"`
	Ranked []sweepScore `json:"ranked"`
}

type sweepScore struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// sweepCandidates converts wire candidates the way actd does.
func sweepCandidates(req sweepRequest) []metrics.Candidate {
	cs := make([]metrics.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		cs[i] = metrics.Candidate{
			Name:     c.Name,
			Embodied: units.Grams(c.EmbodiedG),
			Energy:   units.Joules(c.EnergyJ),
			Delay:    time.Duration(c.DelayS * float64(time.Second)),
			Area:     units.MM2(c.AreaMM2),
		}
	}
	return cs
}

// expectedSweep computes the /v1/sweep answer in process: every Table 2
// ranking plus the 3-axis Pareto frontier.
func expectedSweep(req sweepRequest) ([]byte, []metrics.Candidate, error) {
	cs := sweepCandidates(req)
	var resp sweepResponse
	for _, m := range metrics.All() {
		ranked, err := metrics.Rank(m, cs)
		if err != nil {
			return nil, nil, err
		}
		sr := sweepRanking{Metric: string(m), Ranked: make([]sweepScore, len(ranked))}
		for i, sc := range ranked {
			sr.Ranked[i] = sweepScore{Name: sc.Candidate.Name, Value: sc.Value}
		}
		resp.Rankings = append(resp.Rankings, sr)
	}
	frontier, err := paretoFrontier(cs)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range frontier {
		resp.Pareto = append(resp.Pareto, c.Name)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), cs, nil
}

type fleetInputs struct {
	bulk    [][]byte // NDJSON chunks of the initial device set
	updates [][]byte // replace bodies, sent in cyclic order
}

var fleetRegions = []string{
	"world", "india", "australia", "taiwan", "singapore",
	"united-states", "europe", "brazil", "iceland",
}

func genFleet(seed uint64) (*fleetInputs, error) {
	boms := conform.GenerateCorpus(subSeed(seed, 7), fleetBoMs)
	compact := make([][]byte, len(boms))
	for i, s := range boms {
		b, err := scenario.Marshal(s)
		if err != nil {
			return nil, err
		}
		var c bytes.Buffer
		if err := json.Compact(&c, b); err != nil {
			return nil, err
		}
		compact[i] = c.Bytes()
	}
	deployed := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	line := func(rng *rand.Rand, id int) ([]byte, error) {
		b := rng.Intn(len(boms))
		u := float64(50+rng.Intn(951)) / 1000
		ds := fleet.DeviceSpec{
			ID:          fmt.Sprintf("dev-%06d", id),
			Region:      fleetRegions[rng.Intn(len(fleetRegions))],
			Deployed:    deployed.Format(time.RFC3339),
			Utilization: &u,
			Scenario:    compact[b],
		}
		if rng.Intn(3) != 0 {
			frac := float64(100+rng.Intn(2401)) / 1000
			ds.Retired = deployed.Add(time.Duration(frac * float64(units.Years(boms[b].Lifetime())))).Format(time.RFC3339)
		}
		out, err := json.Marshal(ds)
		return append(out, '\n'), err
	}

	f := &fleetInputs{}
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 8))))
	var buf bytes.Buffer
	for id := 0; id < fleetDevices; id++ {
		l, err := line(rng, id)
		if err != nil {
			return nil, err
		}
		buf.Write(l)
		if (id+1)%bulkChunk == 0 || id == fleetDevices-1 {
			f.bulk = append(f.bulk, bytes.Clone(buf.Bytes()))
			buf.Reset()
		}
	}
	// Update body k rewrites devices spread across the whole id range, so
	// every replace touches many shards.
	urng := rand.New(rand.NewSource(int64(subSeed(seed, 9))))
	for k := 0; k < updateBodies; k++ {
		buf.Reset()
		for j := 0; j < updateSize; j++ {
			l, err := line(urng, j*updateBodies+k)
			if err != nil {
				return nil, err
			}
			buf.Write(l)
		}
		f.updates = append(f.updates, bytes.Clone(buf.Bytes()))
	}
	return f, nil
}
