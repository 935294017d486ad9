// The /partial wire contract: the JSON request body, the request headers a
// coordinator stamps and a worker parses, and the response headers a
// worker stamps and a coordinator parses. Both ends call the stamp/parse
// pairs in this file; nothing else in the package reads or writes a
// /partial header or declares the body.

package netexec

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"

	"cubrick/internal/engine"
)

// Request metadata travels worker-ward in HTTP headers: the coordinator
// stamps its context's tenant and priority onto /partial requests so
// worker-side quotas account the right tenant, and can switch folding and
// caching off per request. HeaderTenant, HeaderPriority and HeaderCache are
// also what a client sends the coordinator's /query.
const (
	HeaderTenant   = "X-Cubrick-Tenant"
	HeaderPriority = "X-Cubrick-Priority"
	// HeaderFold set to "off" runs the request on an unshared brick pass:
	// it neither joins an in-flight pass nor lets other requests join.
	HeaderFold = "X-Cubrick-Fold"
	// HeaderCache set to "off" bypasses every cache level for one request:
	// the coordinator skips its result cache and stamps the header
	// worker-ward, where /partial skips the rollup table and neither
	// consults nor fills the decoded-column cache. The answer is then guaranteed fully
	// recomputed — the debugging escape hatch.
	HeaderCache = "X-Cubrick-Cache"
	// HeaderEpoch carries ingest-epoch state coordinator-ward in HTTP
	// responses: /partial reports the partition's epoch read before
	// execution (conservative — a mid-scan ingest yields a higher epoch
	// that invalidates), /loadbin reports the epoch after the batch
	// committed. The coordinator's result cache validates its
	// entries against the latest epoch seen per partition.
	HeaderEpoch = "X-Cubrick-Epoch"
	// HeaderTopK on a /partial request negotiates top-k pushdown: its
	// value k′ asks the worker to prune the partial to its local top k′
	// groups under the query's ORDER BY. A response without the topk
	// response headers is a complete (unbounded) contribution.
	HeaderTopK = "X-Cubrick-TopK"
	// HeaderTopKThreshold on a pruned /partial response carries the
	// worker's local k′-th order value — the bound on every group it did
	// not ship — as an exact hex float (strconv 'x' format).
	HeaderTopKThreshold = "X-Cubrick-TopK-Threshold"
	// HeaderTopKComplete on a /partial response acknowledges the topk
	// negotiation when the worker had ≤ k′ groups and pruned nothing: the
	// partial is its complete group set.
	HeaderTopKComplete = "X-Cubrick-TopK-Complete"
	// HeaderTopKDropped reports how many groups pruning dropped, feeding
	// the coordinator's wire-savings estimate.
	HeaderTopKDropped = "X-Cubrick-TopK-Dropped"
)

// partialRequest is the /partial request body.
type partialRequest struct {
	Partition string       `json:"partition"`
	Query     engine.Query `json:"query"`
	// TopKKeys marks a top-k second-phase fetch: execute fully, then
	// subset the partial to exactly these groups (hex-encoded raw group
	// keys) so the coordinator can make its uncertain candidates exact
	// without re-shipping the whole group set.
	TopKKeys []string `json:"topk_keys,omitempty"`
}

// newPartialRequest builds the body of a fetch of partition under opts.
func newPartialRequest(partition string, q *engine.Query, opts partialOpts) partialRequest {
	req := partialRequest{Partition: partition, Query: *q}
	if len(opts.keys) > 0 {
		req.TopKKeys = make([]string, len(opts.keys))
		for i, k := range opts.keys {
			req.TopKKeys[i] = hex.EncodeToString([]byte(k))
		}
	}
	return req
}

// keys returns the raw group keys of a second-phase request, nil for any
// other request.
func (r *partialRequest) keys() ([]string, error) {
	if len(r.TopKKeys) == 0 {
		return nil, nil
	}
	keys := make([]string, len(r.TopKKeys))
	for i, h := range r.TopKKeys {
		kb, err := hex.DecodeString(h)
		if err != nil {
			return nil, fmt.Errorf("netexec: bad topk key %q: %w", h, err)
		}
		keys[i] = string(kb)
	}
	return keys, nil
}

// partialOpts is everything a /partial request carries besides the
// partition and the query. tenant, priority, noFold and noCache are the
// same for every call of a query; kPrime > 0 negotiates top-k pruning (the
// worker may prune to its local top k′) and keys marks a second-phase
// fetch of exactly those raw group keys. The zero value is a plain
// full-partial fetch.
type partialOpts struct {
	tenant   string
	priority int
	noFold   bool
	noCache  bool
	kPrime   int
	keys     []string // travels in the body, see newPartialRequest
}

// stamp writes the options' request headers.
func (o partialOpts) stamp(h http.Header) {
	if o.tenant != "" {
		h.Set(HeaderTenant, o.tenant)
	}
	if o.priority != 0 {
		h.Set(HeaderPriority, strconv.Itoa(o.priority))
	}
	if o.noFold {
		h.Set(HeaderFold, "off")
	}
	if o.noCache {
		h.Set(HeaderCache, "off")
	}
	if o.kPrime > 0 {
		h.Set(HeaderTopK, strconv.Itoa(o.kPrime))
	}
}

// parsePartialOpts reads a /partial request's headers. An unparsable
// priority counts as 0; a top-k header that is not a positive integer is
// an error.
func parsePartialOpts(h http.Header) (partialOpts, error) {
	o := partialOpts{
		tenant:  h.Get(HeaderTenant),
		noFold:  h.Get(HeaderFold) == "off",
		noCache: h.Get(HeaderCache) == "off",
	}
	if p := h.Get(HeaderPriority); p != "" {
		o.priority, _ = strconv.Atoi(p)
	}
	if k := h.Get(HeaderTopK); k != "" {
		var err error
		if o.kPrime, err = strconv.Atoi(k); err != nil || o.kPrime <= 0 {
			return o, fmt.Errorf("netexec: bad %s header %q", HeaderTopK, k)
		}
	}
	return o, nil
}

// partialMeta is everything a /partial response carries besides the blob:
// the ingest epoch and, when top-k was negotiated, the worker's threshold
// bound with the number of groups it dropped (hasThreshold — the partial
// was pruned) or its complete ack (it had ≤ k′ groups).
type partialMeta struct {
	epoch        uint64
	hasEpoch     bool
	threshold    float64
	hasThreshold bool
	dropped      int // reported with the threshold
	complete     bool
}

// stamp writes the metadata's response headers.
func (m partialMeta) stamp(h http.Header) {
	if m.hasEpoch {
		h.Set(HeaderEpoch, strconv.FormatUint(m.epoch, 10))
	}
	if m.hasThreshold {
		// Hex float formatting round-trips the threshold exactly.
		h.Set(HeaderTopKThreshold, strconv.FormatFloat(m.threshold, 'x', -1, 64))
		h.Set(HeaderTopKDropped, strconv.Itoa(m.dropped))
	}
	if m.complete {
		// The explicit ack distinguishes "complete group set" from a
		// worker that did not take part in the negotiation.
		h.Set(HeaderTopKComplete, "1")
	}
}

// parsePartialMeta reads a /partial response's headers; a missing or
// unparsable header leaves its field zero.
func parsePartialMeta(h http.Header) partialMeta {
	var m partialMeta
	m.epoch, m.hasEpoch = epochFromHeader(h)
	if t := h.Get(HeaderTopKThreshold); t != "" {
		if v, err := strconv.ParseFloat(t, 64); err == nil {
			m.threshold, m.hasThreshold = v, true
		}
	}
	if d := h.Get(HeaderTopKDropped); d != "" {
		m.dropped, _ = strconv.Atoi(d)
	}
	m.complete = h.Get(HeaderTopKComplete) != ""
	return m
}

// epochFromHeader parses an X-Cubrick-Epoch header (/partial, /loadbin and
// the transfer endpoints all carry one).
func epochFromHeader(hdr http.Header) (uint64, bool) {
	h := hdr.Get(HeaderEpoch)
	if h == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}
