// Prometheus text-exposition ("line protocol") emission. The exporter
// pushes samples as `name{label="value",...} value timestamp_ms\n` — the
// format VictoriaMetrics ingests on /api/v1/import/prometheus and any
// remote-write bridge understands. Every producer appends into a pooled
// buffer through these helpers, so the one-shot CLI render and the pushed
// payload are byte-identical by construction.

package export

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"time"

	"act/internal/prom"
)

// bufPool recycles payload buffers between emission ticks. Buffers that
// grew beyond maxPooledBuf are dropped rather than pinned forever.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 4 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// label is one name="value" pair. Samples keep labels in the order given;
// emitters list them alphabetically so scrapes of the same series compare
// byte-for-byte.
type label struct{ name, value string }

// appendSample appends one exposition line. The timestamp is milliseconds
// since the epoch, the exposition format's native resolution.
func appendSample(b *bytes.Buffer, name string, labels []label, v float64, ts time.Time) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(prom.FormatFloat(v))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(ts.UnixMilli(), 10))
	b.WriteByte('\n')
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
