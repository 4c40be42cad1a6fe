// Request-ID propagation. Every API request carries an X-Request-Id: the
// client's own (when it sends a sane one) or a server-generated id,
// minted ONCE per inbound request. The id rides the request context
// (internal/reqid, so the cluster and export layers can forward it on
// their outbound calls without importing serve), appears in the response
// headers, in every structured log line, and in every JSON error body —
// which is what makes a failure in a thousand-request chaos run, or a
// proxied cross-node ingest hop, attributable to one request.

package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// reqIDSource mints process-unique request ids: a random per-server nonce
// plus a sequence number. Cheaper than per-request crypto randomness and
// trivially greppable in logs.
type reqIDSource struct {
	nonce string
	seq   atomic.Uint64
}

func newReqIDSource() *reqIDSource {
	var b [4]byte
	_, _ = rand.Read(b[:])
	return &reqIDSource{nonce: hex.EncodeToString(b[:])}
}

func (g *reqIDSource) next() string {
	return fmt.Sprintf("%s-%06d", g.nonce, g.seq.Add(1))
}

// requestID returns the client's X-Request-Id when it is sane (non-empty,
// bounded, printable ASCII without spaces), else a freshly minted id.
func (g *reqIDSource) requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		return g.next()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' || id[i] == '"' {
			return g.next()
		}
	}
	return id
}
