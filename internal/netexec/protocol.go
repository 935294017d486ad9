// The /partial wire contract: the JSON request body, the request headers a
// coordinator stamps and a worker parses, and the epoch header a worker
// sets on the response. Both ends of the request call the stamp/parse pair
// in this file; nothing else in the package reads or writes a /partial
// request header or declares the body.

package netexec

import (
	"encoding/json"
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
)

// partialRequest is the /partial request body.
type partialRequest struct {
	Partition string       `json:"partition"`
	Query     engine.Query `json:"query"`
}

// partialBody is partialRequest{partition, query} as encoding/json writes
// it, around a query marshalled once for all of a query's targets.
func partialBody(partition string, query json.RawMessage) ([]byte, error) {
	return json.Marshal(struct {
		Partition string          `json:"partition"`
		Query     json.RawMessage `json:"query"`
	}{partition, query})
}

// partialOpts is everything a /partial request carries besides the
// partition and the query, the same for every call of a query. The zero
// value stamps no header.
type partialOpts struct {
	tenant   string
	priority int
	noFold   bool
	noCache  bool
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
}

// parsePartialOpts reads a /partial request's headers. An unparsable
// priority counts as 0; headers this worker does not know are ignored.
func parsePartialOpts(h http.Header) partialOpts {
	o := partialOpts{
		tenant:  h.Get(HeaderTenant),
		noFold:  h.Get(HeaderFold) == "off",
		noCache: h.Get(HeaderCache) == "off",
	}
	if p := h.Get(HeaderPriority); p != "" {
		o.priority, _ = strconv.Atoi(p)
	}
	return o
}

// partialMeta is what a /partial response carries besides the blob: the
// partition's ingest epoch, hasEpoch=false when the response had no
// parsable X-Cubrick-Epoch header.
type partialMeta struct {
	epoch    uint64
	hasEpoch bool
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
