// The inter-node client: every cluster RPC goes through the same
// resilience layer the public API uses — a per-peer circuit breaker,
// transient-only retries with exponential backoff, deadline propagation
// via the request context, and X-Request-Id forwarding so one id spans a
// request's whole cross-node span. The faultinject cluster.rpc site
// fires before every attempt (retries revisit it), which is how the
// chaos suite fails individual scatter-gather legs.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"act/internal/acterr"
	"act/internal/faultinject"
	"act/internal/reqid"
	"act/internal/resilience"
)

// ForwardedHeader marks a request one cluster member routed to another.
// A member never re-forwards a forwarded request: ingest applies it
// locally, delete answers 409 if it is not the owner — a routing loop
// (two members disagreeing about ownership) surfaces as an error instead
// of a hop storm.
const ForwardedHeader = "X-Act-Forwarded"

// Cluster RPC paths, shared between this client and the serve handlers.
const (
	PathPartial  = "/v1/cluster/partial"
	PathSnapshot = "/v1/cluster/snapshot"
	PathPrepare  = "/v1/cluster/recompute/prepare"
	PathCommit   = "/v1/cluster/recompute/commit"
	PathAbort    = "/v1/cluster/recompute/abort"
)

// maxResponse bounds the bytes read of one peer answer. A partial is
// sized by the shard count and the distinct BoMs, far below it.
const maxResponse = 1 << 30

// callResult is one completed peer exchange. Status < 500, or a 5xx
// `degraded` envelope — the peer answered deliberately; the caller
// interprets the code and body.
type callResult struct {
	status int
	body   []byte
	header http.Header
}

// peerClient is the resilient HTTP client for one remote member.
type peerClient struct {
	base  string // normalized base URL, no trailing slash
	hc    *http.Client
	brk   *resilience.Breaker // nil when breakers are disabled
	retry resilience.RetryPolicy
}

// call performs one logical RPC: breaker admission, then transient-only
// retries around the HTTP exchange. Transport failures and 5xx answers
// are transient (the peer may heal); any status below 500, and a
// `degraded` 503, is a deliberate answer returned to the caller.
func (p *peerClient) call(ctx context.Context, method, path, rawQuery, contentType string, body []byte, forwarded bool) (*callResult, error) {
	var done func(bool)
	if p.brk != nil {
		var err error
		done, err = p.brk.Allow()
		if err != nil {
			return nil, acterr.Transient(fmt.Errorf("cluster: peer %s: %w", p.base, err))
		}
	}
	res, err := resilience.Retry(ctx, p.retry, func(ctx context.Context, _ int) (*callResult, error) {
		if err := faultinject.Visit(ctx, faultinject.SiteClusterRPC); err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %w", p.base, err)
		}
		return p.attempt(ctx, method, path, rawQuery, contentType, body, forwarded)
	})
	if done != nil {
		done(err == nil)
	}
	return res, err
}

func (p *peerClient) attempt(ctx context.Context, method, path, rawQuery, contentType string, body []byte, forwarded bool) (*callResult, error) {
	u := p.base + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.base, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if forwarded {
		req.Header.Set(ForwardedHeader, "1")
	}
	reqid.Forward(ctx, req.Header)
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, acterr.Transient(fmt.Errorf("cluster: peer %s: %w", p.base, err))
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return nil, acterr.Transient(fmt.Errorf("cluster: peer %s: reading response: %w", p.base, err))
	}
	if resp.StatusCode >= 500 && !degraded(b) {
		return nil, acterr.Transient(fmt.Errorf("cluster: peer %s: %s: %s",
			p.base, resp.Status, compactBody(b)))
	}
	return &callResult{status: resp.StatusCode, body: b, header: resp.Header}, nil
}

// degraded reports whether a 5xx body is the member's `degraded`
// envelope: its fleet store is read-only until its own probe heals it,
// so a retry would only be refused again (and count toward breakers).
// It is a deliberate answer, relayed like a 4xx.
func degraded(b []byte) bool {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	return json.Unmarshal(b, &env) == nil && env.Error.Code == "degraded"
}

// MemberError is a member's deliberate non-2xx answer to a forwarded
// request: its status and the fields of its v1 error envelope. The serve
// layer writes it back unchanged, so the coordinator relays the owner's
// envelope rather than reclassifying it.
type MemberError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e *MemberError) Error() string { return e.Message }

// memberError decodes a member's non-2xx answer. A body that is not an
// error envelope is a plain error naming the member.
func memberError(base string, res *callResult) error {
	var env struct {
		Error MemberError `json:"error"`
	}
	if err := json.Unmarshal(res.body, &env); err != nil || env.Error.Code == "" {
		return fmt.Errorf("cluster: peer %s: answered %d: %s", base, res.status, compactBody(res.body))
	}
	env.Error.Status = res.status
	return &env.Error
}

// compactBody squeezes an error body onto one log-friendly line.
func compactBody(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 256 {
		s = s[:256] + "..."
	}
	return strings.ReplaceAll(s, "\n", " ")
}

// normalizeURL canonicalizes a member base URL: scheme + host (+ path),
// no trailing slash. Membership lists must name each member identically
// on every node, so the routing table is the same everywhere.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: member url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: member url %q: need http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: member url %q: missing host", raw)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery = ""
	u.Fragment = ""
	return u.String(), nil
}
