package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"act/internal/resilience"
)

// FetchPartials gathers each member's per-shard partial — the fold input
// path `act fleet -peers` drives. It fetches through the same legs as
// Cluster.GatherPartials, but needs no Cluster value: the caller hands it
// the peer list, each member gets a one-shot client (no breaker, one
// attempt), and a one-shot CLI either gets every member or an error naming
// the first, in member order, it could not reach. topK > 0 asks each
// member for its local top-K emitters so the fold can merge them; groupBy
// names the one group dimension the fold will read ("" for none), and
// each partial carries only that dimension's slots.
func FetchPartials(ctx context.Context, hc *http.Client, bases []string, topK int, groupBy string) ([]Partial, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("cluster: no peers to fetch from")
	}
	peers := make([]*peerClient, len(bases))
	for i, base := range bases {
		nb, err := normalizeURL(base)
		if err != nil {
			return nil, err
		}
		peers[i] = &peerClient{base: nb, hc: hc, retry: resilience.RetryPolicy{MaxAttempts: 1}}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].base < peers[j].base })
	partials, errs := fetchPartials(ctx, peers, topK, groupBy)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch %s: %w", peers[i].base, err)
		}
	}
	return partials, nil
}

// fetchPartials asks every peer for its partial in parallel — top when
// the fold merges top-K lists, by when it groups — and decodes each
// answer; results and errors come back in peer order.
func fetchPartials(ctx context.Context, peers []*peerClient, topK int, groupBy string) ([]Partial, []error) {
	q := url.Values{}
	if topK > 0 {
		q.Set("top", strconv.Itoa(topK))
	}
	if groupBy != "" {
		q.Set("by", groupBy)
	}
	return fanOut(peers, func(p *peerClient) (Partial, error) {
		var part Partial
		res, err := p.call(ctx, http.MethodGet, PathPartial, q.Encode(), "", nil, false)
		if err != nil {
			return part, err
		}
		if res.status != http.StatusOK {
			return part, fmt.Errorf("status %d: %s", res.status, compactBody(res.body))
		}
		if err := json.Unmarshal(res.body, &part); err != nil {
			return part, fmt.Errorf("decoding partial: %w", err)
		}
		return part, nil
	})
}
