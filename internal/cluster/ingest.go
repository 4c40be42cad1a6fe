// Ingest scatter. The coordinator frames the request stream with the
// registry's own reader (fleet.ReadNDJSON, so both classify a malformed
// or oversized stream alike), routes every record to its owning
// member — shard-grain placement, so all records of one global shard go
// to one owner and apply there in stream order, the same per-shard apply
// order the single registry would use — and ships each member its
// sub-batch in one forwarded request. Error indices are remapped from
// the sub-batch back to the global stream position.
//
// Semantic note (documented in API.md): single-node ingest stops at the
// first invalid record; scattered ingest ships sub-batches in parallel,
// so records AFTER a failing index that route to other members may still
// apply. Records before the failing index apply on both. The reported
// error names the smallest failing global index either way.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"act/internal/acterr"
	"act/internal/fleet"
)

// ingestBatch is the routed sub-stream headed for one member.
type ingestBatch struct {
	owner   string
	buf     bytes.Buffer
	indices []int // global stream index of each record, in order
}

// Ingest scatters a device stream across the membership and merges the
// per-member results. maxDevices bounds the whole stream, like the
// registry's own limit.
func (c *Cluster) Ingest(ctx context.Context, rd io.Reader, maxDevices int) (fleet.IngestResult, error) {
	var raws [][]byte
	streamErr := fleet.ReadNDJSON(rd, maxDevices, func(_ int, raw json.RawMessage) error {
		raws = append(raws, raw)
		return nil
	})

	// Everything decoded before a stream fault still applies — the same
	// "applied records stay applied" contract the registry keeps.
	res, flushErr := c.flush(ctx, raws)
	if streamErr != nil {
		return res, streamErr
	}
	return res, flushErr
}

// flush routes the decoded records and dispatches every member's batch
// in parallel.
func (c *Cluster) flush(ctx context.Context, raws [][]byte) (fleet.IngestResult, error) {
	var res fleet.IngestResult
	if len(raws) == 0 {
		return res, nil
	}
	// Route by id. A record whose id cannot even be peeked routes locally:
	// it fails validation wherever it lands, and the local registry
	// produces the canonical typed error for it.
	batches := map[string]*ingestBatch{}
	order := []string{}
	for i, raw := range raws {
		var peek struct {
			ID string `json:"id"`
		}
		owner := c.self
		if err := json.Unmarshal(raw, &peek); err == nil && peek.ID != "" {
			owner = c.OwnerOf(peek.ID)
		}
		b, ok := batches[owner]
		if !ok {
			b = &ingestBatch{owner: owner}
			batches[owner] = b
			order = append(order, owner)
		}
		b.buf.Write(raw)
		b.buf.WriteByte('\n')
		b.indices = append(b.indices, i)
	}

	type outcome struct {
		res fleet.IngestResult
		err error // already remapped to global indices
	}
	outcomes := make([]outcome, len(order))
	var wg sync.WaitGroup
	for bi, owner := range order {
		b := batches[owner]
		wg.Add(1)
		go func(bi int, b *ingestBatch) {
			defer wg.Done()
			var o outcome
			if b.owner == c.self {
				o.res, o.err = c.reg.IngestNDJSON(&b.buf, 0)
				o.err = remapIngestError(o.err, b.indices)
			} else {
				o.res, o.err = c.forwardIngest(ctx, b)
			}
			outcomes[bi] = o
		}(bi, b)
	}
	wg.Wait()

	// Merge counts from every member. When several members failed,
	// surface the record-indexed failure with the smallest global index;
	// a fault without an index (a dead peer, an IO error) only wins when
	// no indexed failure exists.
	var indexedErr, plainErr error
	bestIdx := -1
	for _, o := range outcomes {
		res.Upserted += o.res.Upserted
		res.Replaced += o.res.Replaced
		if o.err == nil {
			continue
		}
		if idx, ok := ingestErrorIndex(o.err); ok {
			if bestIdx < 0 || idx < bestIdx {
				bestIdx, indexedErr = idx, o.err
			}
		} else if plainErr == nil {
			plainErr = o.err
		}
	}
	if indexedErr != nil {
		return res, indexedErr
	}
	return res, plainErr
}

// forwardIngest ships one member its routed sub-batch and folds the
// answer — a result on 200, a reconstructed typed error otherwise, with
// record indices remapped to the global stream.
func (c *Cluster) forwardIngest(ctx context.Context, b *ingestBatch) (fleet.IngestResult, error) {
	var res fleet.IngestResult
	p := c.peers[b.owner]
	if p == nil {
		return res, fmt.Errorf("cluster: no peer client for owner %s", b.owner)
	}
	cr, err := p.call(ctx, http.MethodPost, "/v1/fleet/devices", "", "application/x-ndjson", b.buf.Bytes(), true)
	if err != nil {
		return res, err
	}
	if cr.status == http.StatusOK {
		if err := json.Unmarshal(cr.body, &res); err != nil {
			return res, fmt.Errorf("cluster: peer %s: decoding ingest result: %w", b.owner, err)
		}
		return res, nil
	}
	// A deliberate non-200: rebuild a typed error from the envelope so the
	// coordinator's HTTP layer classifies it the way the owner did.
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(cr.body, &env); err != nil {
		return res, fmt.Errorf("cluster: peer %s: ingest answered %d: %s", b.owner, cr.status, compactBody(cr.body))
	}
	field, msg := remapDeviceField(env.Error.Field, env.Error.Message, b.indices)
	switch env.Error.Code {
	case "invalid_argument", "unsupported_version":
		return res, fmt.Errorf("fleet: %w", acterr.Invalid(field, "%s", msg))
	case "degraded":
		return res, fmt.Errorf("cluster: peer %s: %w", b.owner, fleet.ErrDegraded)
	case "too_large":
		return res, fmt.Errorf("cluster: peer %s: %w: %s", b.owner, fleet.ErrTooMany, msg)
	default:
		return res, fmt.Errorf("cluster: peer %s: ingest answered %d (%s): %s", b.owner, cr.status, env.Error.Code, msg)
	}
}

// remapIngestError rewrites a local sub-batch ingest error's device
// index to the global stream position, keeping the typed error shape so
// the HTTP layer still classifies it as 400-with-field.
func remapIngestError(err error, indices []int) error {
	if err == nil {
		return nil
	}
	var inv *acterr.InvalidSpecError
	if !errors.As(err, &inv) {
		return err
	}
	local, rest, ok := splitDeviceField(inv.Field)
	if !ok || local < 0 || local >= len(indices) {
		return err
	}
	remapped := &acterr.InvalidSpecError{
		Field:  "device[" + strconv.Itoa(indices[local]) + "]" + rest,
		Reason: inv.Reason,
		Err:    inv.Err,
	}
	return fmt.Errorf("fleet: %w", remapped)
}

// splitDeviceField parses "device[N]..." into N and the suffix.
func splitDeviceField(field string) (idx int, rest string, ok bool) {
	const pre = "device["
	if !strings.HasPrefix(field, pre) {
		return 0, "", false
	}
	end := strings.IndexByte(field, ']')
	if end < 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(field[len(pre):end])
	if err != nil {
		return 0, "", false
	}
	return n, field[end+1:], true
}

// remapDeviceField rewrites the leading "device[local]" of a field path
// (and its echo inside the message) to the global stream index.
func remapDeviceField(field, message string, indices []int) (string, string) {
	local, rest, ok := splitDeviceField(field)
	if !ok || local < 0 || local >= len(indices) {
		return field, message
	}
	oldRef := "device[" + strconv.Itoa(local) + "]"
	newRef := "device[" + strconv.Itoa(indices[local]) + "]"
	newField := newRef + rest
	return newField, strings.Replace(message, oldRef, newRef, 1)
}

// ingestErrorIndex extracts the global device index a remapped ingest
// error names, for picking the earliest failure across batches.
func ingestErrorIndex(err error) (int, bool) {
	var inv *acterr.InvalidSpecError
	if !errors.As(err, &inv) {
		return 0, false
	}
	idx, _, ok := splitDeviceField(inv.Field)
	return idx, ok
}
