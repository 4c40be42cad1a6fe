package fleet

import (
	"testing"
	"time"
)

// TestParseDate pins both wire forms and the error text for a date that
// is neither, whatever its length. A valid date in UTC, in either form,
// is parsed without allocating: no failed first layout builds an error
// only to drop it.
func TestParseDate(t *testing.T) {
	for _, c := range []struct {
		in, want, err string
	}{
		{in: "2024-02-29", want: "2024-02-29T00:00:00Z"},
		{in: "2024-02-29T12:30:00Z", want: "2024-02-29T12:30:00Z"},
		{in: "2024-02-29T12:30:00+02:00", want: "2024-02-29T10:30:00Z"},
		{in: "2024-02-29T12:30:00.5-07:00", want: "2024-02-29T19:30:00.5Z"},
		{in: "", err: "invalid spec field deployed: missing date"},
		{in: "2024-13-01", err: `invalid spec field deployed: cannot parse date "2024-13-01" (want 2006-01-02 or RFC 3339)`},
		{in: "2024-1-01", err: `invalid spec field deployed: cannot parse date "2024-1-01" (want 2006-01-02 or RFC 3339)`},
		{in: "2024-01-01T00", err: `invalid spec field deployed: cannot parse date "2024-01-01T00" (want 2006-01-02 or RFC 3339)`},
		{in: "2024-01-01T00:00:00", err: `invalid spec field deployed: cannot parse date "2024-01-01T00:00:00" (want 2006-01-02 or RFC 3339)`},
		{in: "soon", err: `invalid spec field deployed: cannot parse date "soon" (want 2006-01-02 or RFC 3339)`},
	} {
		got, err := parseDate("deployed", c.in)
		if errText(err) != c.err {
			t.Errorf("parseDate(%q) error %q, want %q", c.in, errText(err), c.err)
		}
		if c.err == "" && got.UTC().Format(time.RFC3339Nano) != c.want {
			t.Errorf("parseDate(%q) = %s, want %s", c.in, got.UTC().Format(time.RFC3339Nano), c.want)
		}
	}
	for _, in := range []string{"2024-02-29", "2024-02-29T12:30:00Z"} {
		if n := testing.AllocsPerRun(100, func() { parseDate("deployed", in) }); n != 0 {
			t.Errorf("parseDate(%q) allocates %v times", in, n)
		}
	}
}
