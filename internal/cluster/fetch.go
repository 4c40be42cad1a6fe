package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"act/internal/reqid"
)

// FetchPartials gathers each member's per-shard partial over plain HTTP —
// the fold input path `act fleet -peers` drives. Unlike Cluster.GatherPartials
// it needs no Cluster value, no breakers and no membership ring: the caller
// hands it the peer list, and a one-shot CLI either gets every member or an
// error naming the one it could not reach. topK > 0 asks each member for its
// local top-K emitters so the fold can merge them; groupBy names the one
// group dimension the fold will read ("" for none), and each partial
// carries only that dimension's slots.
func FetchPartials(ctx context.Context, hc *http.Client, bases []string, topK int, groupBy string) ([]Partial, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("cluster: no peers to fetch from")
	}
	partials := make([]Partial, 0, len(bases))
	for _, base := range bases {
		nb, err := normalizeURL(base)
		if err != nil {
			return nil, err
		}
		u := nb + PathPartial
		if enc := partialQuery(topK, groupBy).Encode(); enc != "" {
			u += "?" + enc
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch %s: %w", nb, err)
		}
		reqid.Forward(ctx, req.Header)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch %s: %w", nb, err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch %s: %w", nb, err)
		}
		p, err := decodePartial(resp.StatusCode, body)
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch %s: %w", nb, err)
		}
		partials = append(partials, p)
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Node < partials[j].Node })
	return partials, nil
}

// partialQuery is the query string of a partial request: top when the
// fold merges top-K lists, by when it groups.
func partialQuery(topK int, groupBy string) url.Values {
	q := url.Values{}
	if topK > 0 {
		q.Set("top", strconv.Itoa(topK))
	}
	if groupBy != "" {
		q.Set("by", groupBy)
	}
	return q
}

// decodePartial checks a partial answer's status and decodes its body.
func decodePartial(status int, body []byte) (Partial, error) {
	if status != http.StatusOK {
		return Partial{}, fmt.Errorf("status %d: %s", status, compactBody(body))
	}
	var p Partial
	if err := json.Unmarshal(body, &p); err != nil {
		return Partial{}, fmt.Errorf("decoding partial: %w", err)
	}
	return p, nil
}
