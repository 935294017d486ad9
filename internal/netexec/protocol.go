// The /partial wire contract: the JSON request body, the request headers a
// coordinator stamps and a worker parses, and the epoch header a worker
// sets on the response. Both ends of the request call the stamp/parse pair
// in this file; nothing else in the package reads or writes a /partial
// request header or declares the body.
//
// One call names every partition a query reads on one host, all of one
// table's schema: the worker answers it with one admission ticket and one
// brick pass over all of them into one combiner, so the answer is one fold
// over their bricks in list order, and replies with one raw blob plus one
// epoch per partition. A call succeeds or fails whole — every failure a
// worker returns is a whole-call one (transport, 404, 429, 503, or a 400
// that would repeat on every partition) — so its partitions are merged or
// missing together.

package netexec

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"cubrick/internal/engine"
)

// Request metadata travels worker-ward in HTTP headers: the coordinator
// stamps its context's priority onto /partial requests so the worker's
// admission queue orders the call by it, and can switch caching off per
// request. HeaderPriority and HeaderCache are also what a client sends the
// coordinator's /query.
const (
	HeaderPriority = "X-Cubrick-Priority"
	// HeaderCache set to "off" bypasses every cache level for one request:
	// the coordinator skips its result cache and stamps the header
	// worker-ward, where /partial neither consults nor fills the
	// decoded-column cache. The answer is then guaranteed fully recomputed —
	// the debugging escape hatch.
	HeaderCache = "X-Cubrick-Cache"
	// HeaderEpoch carries ingest-epoch state coordinator-ward in HTTP
	// responses: /partial reports each requested partition's epoch read
	// before execution (conservative — a mid-scan ingest yields a higher
	// epoch that invalidates), comma-separated in request order, so a call
	// for one partition carries one plain number; /loadbin reports the
	// epoch after the batch committed. The coordinator's result cache
	// validates its entries against the latest epoch seen per partition.
	HeaderEpoch = "X-Cubrick-Epoch"
)

// partialRequest is the /partial request body. A single partition is a
// list of one.
type partialRequest struct {
	Partitions []string     `json:"partitions"`
	Query      engine.Query `json:"query"`
}

// partialBody is partialRequest{partitions, query} as encoding/json writes
// it, around a query marshalled once for all of a query's calls.
func partialBody(partitions []string, query json.RawMessage) ([]byte, error) {
	return json.Marshal(struct {
		Partitions []string        `json:"partitions"`
		Query      json.RawMessage `json:"query"`
	}{partitions, query})
}

// partialOpts is everything a /partial request carries besides the
// partition and the query, the same for every call of a query. The zero
// value stamps no header.
type partialOpts struct {
	priority int
	noCache  bool
}

// stamp writes the options' request headers.
func (o partialOpts) stamp(h http.Header) {
	if o.priority != 0 {
		h.Set(HeaderPriority, strconv.Itoa(o.priority))
	}
	if o.noCache {
		h.Set(HeaderCache, "off")
	}
}

// parsePartialOpts reads a /partial request's headers. An unparsable
// priority counts as 0; headers this worker does not know are ignored.
func parsePartialOpts(h http.Header) partialOpts {
	o := partialOpts{noCache: h.Get(HeaderCache) == "off"}
	if p := h.Get(HeaderPriority); p != "" {
		o.priority, _ = strconv.Atoi(p)
	}
	return o
}

// partialMeta is what a /partial response carries besides the blob: one
// ingest epoch per requested partition, in request order, or nil when the
// response had no X-Cubrick-Epoch header that parses into exactly that many.
type partialMeta struct {
	epochs []uint64
}

// epochFromHeader parses a single-epoch X-Cubrick-Epoch header (/loadbin
// and the transfer endpoints carry one).
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

// epochsFromHeader parses a /partial response's X-Cubrick-Epoch list for a
// call that named n partitions. A missing header, an element that is not a
// number, or a count other than n yields nil: the answer is then merged
// but not cacheable.
func epochsFromHeader(hdr http.Header, n int) []uint64 {
	h := hdr.Get(HeaderEpoch)
	if h == "" || strings.Count(h, ",") != n-1 {
		return nil
	}
	epochs := make([]uint64, 0, n)
	for _, f := range strings.Split(h, ",") {
		e, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		epochs = append(epochs, e)
	}
	return epochs
}

// formatEpochs writes epochs as an X-Cubrick-Epoch list.
func formatEpochs(epochs []uint64) string {
	var b []byte
	for i, e := range epochs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, e, 10)
	}
	return string(b)
}
