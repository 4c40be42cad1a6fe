package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"act/internal/dse"
	"act/internal/metrics"
	"act/internal/units"
)

// sweepResponse is the shape of a /v1/sweep answer, as handleSweep writes
// it: the oracle its bytes are held to (through json.NewEncoder) and the
// form tests decode it into.
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

// oracleSweep computes the answer to a request the handler took, from the
// same rankings and frontier, as json.NewEncoder writes sweepResponse.
func oracleSweep(t *testing.T, req sweepRequest) []byte {
	t.Helper()
	cands := make([]metrics.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		delay, err := metrics.DelayFromSeconds(c.DelayS)
		if err != nil {
			t.Fatal(err)
		}
		cands[i] = metrics.Candidate{
			Name:     c.Name,
			Embodied: units.Grams(c.EmbodiedG),
			Energy:   units.Joules(c.EnergyJ),
			Delay:    delay,
			Area:     units.MM2(c.AreaMM2),
		}
	}
	var resp sweepResponse
	for _, name := range expandMetrics(req.Rank) {
		m := metrics.Metric(strings.ToUpper(strings.TrimSpace(name)))
		ranked, err := metrics.Rank(m, cands)
		if err != nil {
			t.Fatal(err)
		}
		sr := sweepRanking{Metric: string(m), Ranked: make([]sweepScore, len(ranked))}
		for i, sc := range ranked {
			sr.Ranked[i] = sweepScore{Name: sc.Candidate.Name, Value: sc.Value}
		}
		resp.Rankings = append(resp.Rankings, sr)
	}
	if len(req.Pareto) > 0 {
		objectives := make([]dse.Objective, len(req.Pareto))
		for i, axis := range req.Pareto {
			objectives[i] = builtinObjectives[strings.ToLower(strings.TrimSpace(axis))]
		}
		frontier, err := dse.ParetoFrontier(cands, objectives)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range frontier {
			resp.Pareto = append(resp.Pareto, c.Name)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepBody renders a perfbench-shaped /v1/sweep body: n candidates,
// every Table 2 ranking and a 3-axis Pareto frontier.
func sweepBody(tb testing.TB, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(25))
	req := sweepRequest{Rank: []string{"all"}, Pareto: []string{"embodied", "energy", "delay"}}
	for i := 0; i < n; i++ {
		req.Candidates = append(req.Candidates, sweepCandidate{
			Name:      fmt.Sprintf("cand-%05d", i),
			EmbodiedG: 1000 + rng.Float64()*50000,
			EnergyJ:   rng.Float64() * 1e7,
			DelayS:    float64(1+rng.Intn(100000)) / 1000,
			AreaMM2:   1 + rng.Float64()*300,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// serveSweep answers one /v1/sweep request in process.
func serveSweep(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	return w
}

// TestSweepFastAndOracleAgree sends one body the fast decoder takes and
// the same body respelled so it declines (a case-folded key, which only
// encoding/json matches): the two answers must be the same bytes.
func TestSweepFastAndOracleAgree(t *testing.T) {
	fast := sweepBody(t, 200)
	slow := bytes.Replace(fast, []byte(`"name"`), []byte(`"NAME"`), 1)
	if _, ok := fastSweep(fast); !ok {
		t.Fatal("fast decoder declined a body encoding/json wrote")
	}
	if _, ok := fastSweep(slow); ok {
		t.Fatal("fast decoder took a case-folded key")
	}
	h := New(Config{Logger: discardLogger()}).Handler()
	a, b := serveSweep(h, fast), serveSweep(h, slow)
	if a.Code != http.StatusOK || b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("fast path answered %d, oracle path %d; bodies equal: %v",
			a.Code, b.Code, bytes.Equal(a.Body.Bytes(), b.Body.Bytes()))
	}
}

// FuzzSweepDecode holds fastSweep to decodeJSON's encoding/json decode:
// whatever the fast path accepts, the oracle accepts and decodes to the
// same request, and a body the oracle refuses never passes the fast path.
func FuzzSweepDecode(f *testing.F) {
	cand := `{"name":"a","embodied_g":1,"energy_j":1,"delay_s":1}`
	for _, s := range []string{
		// The error-contract sweep bodies.
		`{`,
		`{"pad":"xxxx"}`,
		`{"rank":["CDP"]}`,
		`{"candidates":[` + cand + `]}`,
		`{"candidates":[` + cand + `],"rank":["XYZ"]}`,
		`{"candidates":[` + cand + `],"pareto":["energy"]}`,
		`{"candidates":[` + cand + `],"pareto":["energy","beauty"]}`,
		`{"candidates":[{"name":"a","embodied_g":1e300,"energy_j":1e300,"delay_s":1},{"name":"b","embodied_g":1,"energy_j":1,"delay_s":1}],"rank":["CEP"]}`,
		`{"candidates":[` + cand + `,{"name":"b","embodied_g":1,"energy_j":1,"delay_s":1e300}],"rank":["CDP"]}`,
		// The subset's edges: what it takes and what it must decline.
		`{"version":1,"candidates":[{"name":"xé\n","embodied_g":-0,"energy_j":1.5e-3,"delay_s":2,"area_mm2":3}],"rank":["all"],"pareto":["embodied","delay"]}`,
		` { "candidates" : [ ] , "rank" : [ ] } `,
		`{"version":1.0,"candidates":[]}`,
		`{"version":99999999999999999999}`,
		`{"Candidates":[]}`,
		`{"rank":["CDP"],"rank":["EDP"]}`,
		`{"candidates":null,"rank":[null]}`,
		`{"candidates":[` + cand + `]} trailing`,
		`{"candidates":[` + cand + `]}{}`,
		`{"candidates":[{"name":"a","delay_s":1e400}]}`,
		`{"candidates":[{"name":"a","delay_s":"1"}]}`,
		`{"candidates":[{"name":"a","bogus":1}]}`,
		"{\"rank\":[\"\xff\"]}",
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := fastSweep(data)
		var want sweepRequest
		err := decodeJSON(data, "sweep request", &want)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("fast path accepted %q, oracle refused it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path decoded %q as\n%+v\noracle:\n%+v", data, got, want)
		}
	})
}

// FuzzSweepEncode holds handleSweep's written answer to oracleSweep: for
// every body answered 200, the bytes are the ones json.NewEncoder gives
// the sweepResponse of the same rankings and frontier.
func FuzzSweepEncode(f *testing.F) {
	cand := func(name string, g, j, s float64) string {
		return fmt.Sprintf(`{"name":%q,"embodied_g":%g,"energy_j":%g,"delay_s":%g,"area_mm2":%g}`, name, g, j, s, g)
	}
	for _, s := range []string{
		// Names that need escaping, invalid UTF-8 included.
		`{"candidates":[` + cand("<a>", 1, 2, 3) + `,` + cand("b&c", 2, 1, 3) + `,` + cand("d\u2028e\u2029", 3, 3, 1) + `],"rank":["all"],"pareto":["embodied","energy","delay"]}`,
		"{\"candidates\":[{\"name\":\"x\xffy\",\"embodied_g\":1,\"energy_j\":1,\"delay_s\":1}],\"rank\":[\"CDP\"],\"pareto\":[\"energy\",\"delay\"]}",
		`{"candidates":[` + cand("quote\"back\\slash\ttab", 1, 1, 1) + `],"rank":["CEP"]}`,
		// Values at the edges of the 'e' format: below 1e-6 and from 1e21.
		`{"candidates":[` + cand("lo", 1e-7, 1, 1) + `,` + cand("edge", 1e-6, 1, 1) + `,` + cand("hi", 1e21, 1, 1) + `,` + cand("under", 9.99e20, 1, 1) + `],"rank":["CDP","CEP","EDAP"]}`,
		`{"candidates":[` + cand("zero", 0, 0, 1) + `,` + `{"name":"negzero","embodied_g":-0,"energy_j":1,"delay_s":1}],"rank":["CDP"],"pareto":["embodied","delay"]}`,
		// Rankings only, then a frontier only: the other key is left out.
		`{"candidates":[` + cand("a", 1, 2, 3) + `,` + cand("b", 3, 2, 1) + `],"rank":["EDP"]}`,
		`{"candidates":[` + cand("a", 1, 2, 3) + `,` + cand("b", 3, 2, 1) + `,` + cand("c", 3, 3, 3) + `],"pareto":["embodied","delay","energy","area"]}`,
		// Decoded by the oracle path: a case-folded key.
		`{"Candidates":[` + cand("a", 1, 2, 3) + `],"rank":["all"]}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(sweepBody(f, 40))
	h := New(Config{Logger: discardLogger()}).Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := serveSweep(h, data)
		if w.Code != http.StatusOK {
			return
		}
		var req sweepRequest
		if err := decodeJSON(data, "sweep request", &req); err != nil {
			t.Fatalf("handler answered 200 to %q, which decodeJSON refuses: %v", data, err)
		}
		if want := oracleSweep(t, req); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("answer to %q:\n got %s\nwant %s", data, w.Body.Bytes(), want)
		}
	})
}

// BenchmarkSweepHandler times the request perfbench's design workload
// sends to /v1/sweep (1000 candidates, every ranking, a 3-axis frontier)
// through the whole handler: decode, rank, frontier, encode.
func BenchmarkSweepHandler(b *testing.B) {
	h := New(Config{Logger: discardLogger()}).Handler()
	body := sweepBody(b, 1000)
	if w := serveSweep(h, body); w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), `{"rankings":`) {
		b.Fatalf("sweep answered %d: %.200s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveSweep(h, body); w.Code != http.StatusOK {
			b.Fatalf("sweep answered %d", w.Code)
		}
	}
}
