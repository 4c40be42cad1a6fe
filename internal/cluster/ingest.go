// Ingest scatter. The coordinator frames the request stream with the
// registry's own reader (fleet.ReadNDJSON, so both classify a malformed
// or oversized stream alike), routes every record to its owning
// member — shard-grain placement, so all records of one global shard go
// to one owner and apply there in stream order, the same per-shard apply
// order the single registry would use — and ships each member its
// sub-batch in one forwarded request. A member's refusal becomes the
// error its own registry returned, and its record index is remapped from
// the sub-batch back to the global stream position, so the coordinator
// answers exactly what a single node would.
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

	"act/internal/acterr"
	"act/internal/fleet"
)

// ingestRecord is one framed record and the id the framer skimmed from
// it, "" when it skimmed none.
type ingestRecord struct {
	raw []byte
	id  string
}

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
	var recs []ingestRecord
	streamErr := fleet.ReadNDJSON(rd, maxDevices, func(_ int, raw json.RawMessage, id string) error {
		recs = append(recs, ingestRecord{raw, id})
		return nil
	})

	// Everything decoded before a stream fault still applies — the same
	// "applied records stay applied" contract the registry keeps.
	res, flushErr := c.flush(ctx, recs)
	if streamErr != nil {
		return res, streamErr
	}
	return res, flushErr
}

// flush routes the decoded records and dispatches every member's batch
// in parallel.
func (c *Cluster) flush(ctx context.Context, recs []ingestRecord) (fleet.IngestResult, error) {
	var res fleet.IngestResult
	if len(recs) == 0 {
		return res, nil
	}
	var batches []*ingestBatch
	byOwner := map[string]*ingestBatch{}
	for i, rec := range recs {
		owner := c.recordOwner(rec)
		b, ok := byOwner[owner]
		if !ok {
			b = &ingestBatch{owner: owner}
			byOwner[owner] = b
			batches = append(batches, b)
		}
		b.buf.Write(rec.raw)
		b.buf.WriteByte('\n')
		b.indices = append(b.indices, i)
	}

	results, errs := fanOut(batches, func(b *ingestBatch) (fleet.IngestResult, error) {
		res, err := c.ingestBatch(ctx, b)
		return res, remapIngestError(err, b.indices)
	})

	// Merge counts from every member. When several members failed,
	// surface the record-indexed failure with the smallest global index;
	// a fault without an index (a dead peer, an IO error) only wins when
	// no indexed failure exists.
	var indexedErr, plainErr error
	bestIdx := -1
	for i, err := range errs {
		res.Upserted += results[i].Upserted
		res.Replaced += results[i].Replaced
		if err == nil {
			continue
		}
		if idx, ok := ingestErrorIndex(err); ok {
			if bestIdx < 0 || idx < bestIdx {
				bestIdx, indexedErr = idx, err
			}
		} else if plainErr == nil {
			plainErr = err
		}
	}
	if indexedErr != nil {
		return res, indexedErr
	}
	return res, plainErr
}

// recordOwner routes a record by its id: the skimmed one, or when the
// framer skimmed none, the id encoding/json reads from the record. A
// record with no id it can read routes locally: it fails validation
// wherever it lands, and the local registry produces the canonical typed
// error for it.
func (c *Cluster) recordOwner(rec ingestRecord) string {
	id := rec.id
	if id == "" {
		var peek struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(rec.raw, &peek) == nil {
			id = peek.ID
		}
	}
	if id == "" {
		return c.self
	}
	return c.OwnerOf(id)
}

// ingestBatch applies one member's routed sub-batch — on the local
// registry, or shipped to its owner — and answers the owner's registry's
// result or error, its record index still local to the sub-batch.
func (c *Cluster) ingestBatch(ctx context.Context, b *ingestBatch) (fleet.IngestResult, error) {
	if b.owner == c.self {
		return c.reg.IngestNDJSON(&b.buf, 0)
	}
	var res fleet.IngestResult
	p, err := c.peer(b.owner)
	if err != nil {
		return res, err
	}
	cr, err := p.call(ctx, http.MethodPost, "/v1/fleet/devices", "", "application/x-ndjson", b.buf.Bytes(), true)
	if err != nil {
		return res, err
	}
	if cr.status != http.StatusOK {
		return res, registryError(memberError(p.base, cr))
	}
	if err := json.Unmarshal(cr.body, &res); err != nil {
		return res, fmt.Errorf("cluster: peer %s: decoding ingest result: %w", b.owner, err)
	}
	return res, nil
}

// registryError turns a member's validation refusal back into the typed
// error its registry built — "fleet: " around an InvalidSpecError whose
// message the envelope carries after its field — so the coordinator's
// envelope is the member's own. Any other refusal (too large, a
// conflict) stays the member's envelope, which the serve layer writes
// unchanged.
func registryError(err error) error {
	var me *MemberError
	if !errors.As(err, &me) || me.Code != "invalid_argument" && me.Code != "unsupported_version" {
		return err
	}
	inv := &acterr.InvalidSpecError{
		Field:  me.Field,
		Reason: strings.TrimPrefix(me.Message, "fleet: invalid spec field "+me.Field+": "),
	}
	if me.Code == "unsupported_version" {
		inv.Err = acterr.ErrUnsupportedVersion
	}
	return fmt.Errorf("fleet: %w", inv)
}

// remapIngestError rewrites a sub-batch ingest error's device index to
// the global stream position, keeping the typed error shape so the HTTP
// layer still classifies it as 400-with-field.
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
