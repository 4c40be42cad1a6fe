package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path"
	"sync"
	"testing"
	"time"

	"act/internal/report"
	"act/internal/units"
	"act/internal/vfs"
)

// forceDecode respells every line's "id" key as "ID". encoding/json
// matches it to the same field and the fast subset does not, so a
// stream respelled so is read through encoding/json with every scenario
// decoded, none looked up in the BoM table.
func forceDecode(body []byte) []byte {
	return bytes.ReplaceAll(body, []byte(`"id":`), []byte(`"ID":`))
}

// fleetShaped renders bodies shaped like perfbench's fleet: n devices
// over `boms` BoMs sent as compact bytes, RFC 3339 dates, a utilization
// in [0.05, 1] and, on two devices in three, an explicit retire date.
// bulk holds every device and update a replace body of k devices spread
// over the id range.
func fleetShaped(tb testing.TB, n, boms, k int) (bulk, update []byte) {
	tb.Helper()
	compact := make([][]byte, boms)
	for i := range compact {
		raw, err := json.Marshal(testSpec(i))
		if err != nil {
			tb.Fatal(err)
		}
		compact[i] = raw
	}
	regions := []string{"world", "india", "australia", "taiwan", "singapore", "united-states", "europe", "brazil", "iceland"}
	deployed := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(26))
	line := func(buf *bytes.Buffer, id int) {
		u := float64(50+rng.Intn(951)) / 1000
		ds := DeviceSpec{
			ID:          fmt.Sprintf("dev-%06d", id),
			Region:      regions[rng.Intn(len(regions))],
			Deployed:    deployed.Format(time.RFC3339),
			Utilization: &u,
			Scenario:    compact[rng.Intn(boms)],
		}
		if rng.Intn(3) != 0 {
			ds.Retired = deployed.Add(time.Duration(float64(100+rng.Intn(2401)) / 1000 * float64(units.Years(3)))).Format(time.RFC3339)
		}
		out, err := json.Marshal(ds)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(out)
		buf.WriteByte('\n')
	}
	var bb, ub bytes.Buffer
	for id := 0; id < n; id++ {
		line(&bb, id)
	}
	for j := 0; j < k; j++ {
		line(&ub, j*(n/k))
	}
	return bb.Bytes(), ub.Bytes()
}

// walBytes concatenates the WAL segments in name order.
func walBytes(t *testing.T, m *vfs.MemFS) []byte {
	t.Helper()
	names, err := m.ReadDir(testWALDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, name := range names {
		f, err := m.Open(path.Join(testWALDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// queryBytes renders the plain, by-region and top-10 answers.
func queryBytes(t *testing.T, reg *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, q := range []Query{{}, {GroupBy: "region"}, {TopK: 10}} {
		doc, err := reg.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Encode(&buf, doc); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func snapshotBytes(t *testing.T, reg *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHitPathMatchesDecodePath feeds one store-backed registry streams
// whose scenarios are looked up in the BoM table, and another the same
// streams with every scenario decoded. Their answers, errors, snapshots
// and write-ahead logs must be the same bytes: through device lines in
// and out of the fast subset, benchmark lines sent twice, a
// perfbench-shaped fleet with its replace bodies, a BoM re-sent after
// its last device was removed, and replace bodies after Recompute.
func TestHitPathMatchesDecodePath(t *testing.T) {
	hm, dm := vfs.NewMemFS(), vfs.NewMemFS()
	hit, _ := openTestStore(t, hm, 0)
	dec, _ := openTestStore(t, dm, 0)
	ingest := func(what string, body []byte) {
		t.Helper()
		hres, herr := hit.IngestNDJSON(bytes.NewReader(body), 0)
		dres, derr := dec.IngestNDJSON(bytes.NewReader(forceDecode(body)), 0)
		if hres != dres || errText(herr) != errText(derr) {
			t.Fatalf("%s: hit path %+v, error %q; decode path %+v, error %q", what, hres, errText(herr), dres, errText(derr))
		}
	}
	both := func(what string, op func(*Registry) error) {
		t.Helper()
		if herr, derr := op(hit), op(dec); errText(herr) != errText(derr) {
			t.Fatalf("%s: hit path error %q, decode path %q", what, errText(herr), errText(derr))
		}
	}
	compare := func(what string) {
		t.Helper()
		if !bytes.Equal(queryBytes(t, hit), queryBytes(t, dec)) {
			t.Fatalf("%s: answers differ\nhit:    %s\ndecode: %s", what, queryBytes(t, hit), queryBytes(t, dec))
		}
		if !bytes.Equal(snapshotBytes(t, hit), snapshotBytes(t, dec)) {
			t.Fatalf("%s: snapshots differ", what)
		}
		if !bytes.Equal(walBytes(t, hm), walBytes(t, dm)) {
			t.Fatalf("%s: write-ahead logs differ", what)
		}
	}

	for i, s := range deviceSeeds(t) {
		ingest(fmt.Sprintf("device seed %d", i), []byte(s.line))
	}
	compare("device seeds")
	var lines []byte
	for _, l := range benchLines(t, 64, 8) {
		lines = append(append(lines, l...), '\n')
	}
	ingest("bench lines", lines)
	ingest("bench lines again", lines)
	compare("bench lines")
	bulk, update := fleetShaped(t, 2000, 256, 100)
	ingest("fleet", bulk)
	ingest("replace body", update)
	compare("fleet")

	// The last device on a BoM leaves, so re-sending it misses the table.
	solo, err := json.Marshal(testSpec(999))
	if err != nil {
		t.Fatal(err)
	}
	soloLine := func(id string) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"region":"world","deployed":"2024-01-01","scenario":%s}`, id, solo))
	}
	ingest("solo BoM", soloLine("solo-1"))
	both("remove solo", func(r *Registry) error { _, err := r.Remove("solo-1"); return err })
	ingest("solo BoM re-sent", soloLine("solo-2"))
	compare("released BoM")

	both("recompute", func(r *Registry) error { return r.Recompute(context.Background()) })
	ingest("replace body after recompute", update)
	ingest("a bad line after recompute", bytes.Replace(update, []byte(`"2023-01-01T00:00:00Z"`), []byte(`"2023-01-01T00:00:00"`), 1))
	compare("after recompute")
}

// TestHitPathRacesRelease ingests replace bodies while their devices are
// removed and the registry recomputed, so lookups race the release of
// the entries they hit. Run under -race. Once the body is ingested once
// more and both registries are recomputed (which refolds the totals from
// the records), the registry must answer as one fed only that body with
// every scenario decoded.
func TestHitPathRacesRelease(t *testing.T) {
	_, body := fleetShaped(t, 400, 8, 40)
	reg := New(Config{Shards: 8})
	var ids []string
	for _, l := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ds DeviceSpec
		if err := json.Unmarshal(l, &ds); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ds.ID)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	run := func(op func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := op(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	run(func() error { _, err := reg.IngestNDJSON(bytes.NewReader(body), 0); return err })
	run(func() error {
		for _, id := range ids {
			if _, err := reg.Remove(id); err != nil {
				return err
			}
		}
		return nil
	})
	run(func() error { return reg.Recompute(context.Background()) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	oracle := New(Config{Shards: 8})
	for r, b := range map[*Registry][]byte{reg: body, oracle: forceDecode(body)} {
		if _, err := r.IngestNDJSON(bytes.NewReader(b), 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Recompute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(queryBytes(t, reg), queryBytes(t, oracle)) {
		t.Fatalf("answers differ\nraced:  %s\noracle: %s", queryBytes(t, reg), queryBytes(t, oracle))
	}
	if !bytes.Equal(snapshotBytes(t, reg), snapshotBytes(t, oracle)) {
		t.Fatal("snapshots differ")
	}
}
