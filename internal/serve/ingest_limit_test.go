package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"act/internal/fleet"
)

// TestFleetIngestBodyLimitPartialApply pins what a body that crosses a
// limit partway through leaves behind: the answer is 413 too_large with
// the limit's envelope, and exactly the records before the one the limit
// cut off stay applied. The body limit is placed inside a record, exactly
// at a record's closing brace and inside the whitespace between two
// records; the device cap is exceeded by a well-formed record. Every body
// is sent whole and one byte per read, so the limit lands on every
// read boundary the handler can see.
func TestFleetIngestBodyLimitPartialApply(t *testing.T) {
	const n = 5
	var body bytes.Buffer
	ends := make([]int, n) // offset just past each record's closing brace
	for i := 0; i < n; i++ {
		body.WriteString(fleetLine(t, fmt.Sprintf("r%d", i), float64(10+i), "europe"))
		ends[i] = body.Len()
		body.WriteString("\n  \n")
	}
	tooLarge := func(limit int) errorDetail {
		return errorDetail{Code: codeTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", limit)}
	}
	cases := []struct {
		name    string
		cfg     Config
		applied int
		want    errorDetail
	}{
		{"limit inside record 2", Config{MaxBodyBytes: int64(ends[1] + 40)}, 2, tooLarge(ends[1] + 40)},
		{"limit at record 2's closing brace", Config{MaxBodyBytes: int64(ends[2])}, 3, tooLarge(ends[2])},
		{"limit between records 2 and 3", Config{MaxBodyBytes: int64(ends[2] + 2)}, 3, tooLarge(ends[2] + 2)},
		{"device cap 3", Config{MaxBatch: 3}, 3,
			errorDetail{Code: codeTooLarge, Message: "fleet: too many devices in one ingest: limit 3"}},
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":        func(b []byte) io.Reader { return bytes.NewReader(b) },
		"byte-by-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	for _, c := range cases {
		for rname, reader := range readers {
			t.Run(c.name+"/"+rname, func(t *testing.T) {
				c.cfg.Logger = discardLogger()
				s := New(c.cfg)
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fleet/devices", reader(body.Bytes())))
				if w.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("status %d, want 413: %s", w.Code, w.Body.String())
				}
				got := decodeError(t, w.Body.Bytes())
				got.RequestID = ""
				if got != c.want {
					t.Fatalf("envelope %+v, want %+v", got, c.want)
				}
				doc, err := s.Fleet().Query(fleet.Query{TopK: n})
				if err != nil {
					t.Fatal(err)
				}
				var ids []string
				for _, d := range doc.Top {
					ids = append(ids, d.ID)
				}
				slices.Sort(ids)
				var want []string
				for i := 0; i < c.applied; i++ {
					want = append(want, fmt.Sprintf("r%d", i))
				}
				if s.Fleet().Len() != c.applied || strings.Join(ids, ",") != strings.Join(want, ",") {
					t.Fatalf("registry holds %d devices %v, want %v", s.Fleet().Len(), ids, want)
				}
			})
		}
	}
}
