// Command cubrick-server exposes an in-process Cubrick deployment over
// HTTP/JSON — the shape of the paper's proxy tier: clients submit queries
// to a stateless front end, which routes them into the partially-sharded
// cluster with transparent retries.
//
// Endpoints:
//
//	POST /tables          {"name": ..., "schema": {...}}   create a table
//	POST /load            {"table": ..., "rows": [...]}    ingest rows
//	POST /query           {"cql": "SELECT ..."}            run a query
//	GET  /tables                                           list tables
//	GET  /stats                                            proxy stats
//
// Run: go run ./cmd/cubrick-server -addr :8080
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	cubrick "cubrick"
	"cubrick/internal/admission"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/proxy"
)

type server struct {
	db *cubrick.DB
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dualReadWindow := flag.Duration("dual-read-window", 0, "how long a migrated shard's old copy keeps serving after a move (the in-process deployment's discovery propagation wait; 0 keeps the default)")
	serving := partition.RegisterFlags(flag.CommandLine)
	flag.Parse()

	cfg := cubrick.Defaults()
	cfg.Deployment.Node.Config = serving.Config()
	if *dualReadWindow > 0 {
		// In the in-process deployment the dual-read window IS the §IV-E
		// propagation wait: the old replica keeps its data (and keeps
		// answering) until the window elapses, then the delayed drop fires.
		cfg.Deployment.PropagationWait = *dualReadWindow
		log.Printf("cubrick-server migration dual-read window: %s", *dualReadWindow)
	}
	log.Printf("cubrick-server per-node serving: %+v", cfg.Deployment.Node.Config)
	db, err := cubrick.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open deployment:", err)
		os.Exit(1)
	}
	if serving.CompactInterval > 0 {
		ccfg := serving.Compaction
		log.Printf("cubrick-server compactor: interval=%s encode-below=%g evict-below=%g promote-above=%g",
			serving.CompactInterval, ccfg.EncodeBelow, ccfg.EvictBelow, ccfg.PromoteAbove)
		go func() {
			t := time.NewTicker(serving.CompactInterval)
			defer t.Stop()
			for range t.C {
				for _, n := range db.Deployment().Nodes() {
					n.DecayHotness()
					if _, err := n.Parts().Compact(ccfg); err != nil {
						log.Printf("cubrick-server compaction: %v", err)
					}
				}
			}
		}()
	}
	s := &server{db: db}
	mux := http.NewServeMux()
	mux.HandleFunc("/tables", s.tables)
	mux.HandleFunc("/load", s.load)
	mux.HandleFunc("/query", s.query)
	mux.HandleFunc("/stats", s.stats)
	log.Printf("cubrick-server listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) tables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.db.Tables())
	case http.MethodPost:
		var req struct {
			Name   string             `json:"name"`
			Schema netexec.SchemaJSON `json:"schema"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.db.CreateTable(req.Name, req.Schema.ToSchema()); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "created"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) load(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	table, dims, metrics, err := netexec.DecodeLoad(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.db.Load(table, dims, metrics); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"loaded": len(dims)})
}

func (s *server) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		CQL string `json:"cql"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.db.Query(r.Context(), req.CQL)
	if err != nil {
		writeErr(w, queryStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"columns":     res.Columns,
		"rows":        res.Rows,
		"partitions":  res.Partitions,
		"region":      res.Region,
		"fanout":      res.Fanout,
		"latency_ms":  float64(res.Latency.Microseconds()) / 1000,
		"rowsScanned": res.RowsScanned,
	})
}

// queryStatus maps a query error to its HTTP status. Shedding is checked
// first: when every region shed the query, ErrAllRegionsFailed wraps
// admission's ErrQueueFull, and the client should back off, not give up.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, proxy.ErrAdmission):
		// 429 tells clients to back off and retry, mirroring the
		// worker/coordinator behaviour.
		return http.StatusTooManyRequests
	case errors.Is(err, proxy.ErrAllRegionsFailed), errors.Is(err, proxy.ErrBlacklisted),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The query may be fine; the deployment could not answer it now.
		return http.StatusServiceUnavailable
	}
	// Bad CQL and unknown tables fail fast in the proxy, unwrapped.
	return http.StatusBadRequest
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	p := s.db.Proxy()
	snap := p.Latency.Snapshot()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"queries":    p.Queries.Value(),
		"retries":    p.Retries.Value(),
		"failures":   p.Failures.Value(),
		"rejections": p.Rejections.Value(),
		"latency": map[string]float64{
			"p50_ms": snap.P50 * 1000, "p99_ms": snap.P99 * 1000, "max_ms": snap.Max * 1000,
		},
	})
}
