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
	"cubrick/internal/partition"
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
	var err error
	if cfg.Deployment.Node.Config, err = serving.Config(); err != nil {
		log.Fatalf("cubrick-server: %v", err)
	}
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

type schemaJSON struct {
	Dimensions []struct {
		Name    string `json:"name"`
		Max     uint32 `json:"max"`
		Buckets uint32 `json:"buckets"`
	} `json:"dimensions"`
	Metrics []struct {
		Name string `json:"name"`
	} `json:"metrics"`
}

func (sj schemaJSON) toSchema() cubrick.Schema {
	var s cubrick.Schema
	for _, d := range sj.Dimensions {
		s.Dimensions = append(s.Dimensions, cubrick.Dimension{Name: d.Name, Max: d.Max, Buckets: d.Buckets})
	}
	for _, m := range sj.Metrics {
		s.Metrics = append(s.Metrics, cubrick.Metric{Name: m.Name})
	}
	return s
}

func (s *server) tables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.db.Tables())
	case http.MethodPost:
		var req struct {
			Name   string     `json:"name"`
			Schema schemaJSON `json:"schema"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.db.CreateTable(req.Name, req.Schema.toSchema()); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "created"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

type rowJSON struct {
	Dims    []uint32  `json:"dims"`
	Metrics []float64 `json:"metrics"`
}

func (s *server) load(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Table string    `json:"table"`
		Rows  []rowJSON `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	dims := make([][]uint32, len(req.Rows))
	metrics := make([][]float64, len(req.Rows))
	for i, row := range req.Rows {
		dims[i], metrics[i] = row.Dims, row.Metrics
	}
	if err := s.db.Load(req.Table, dims, metrics); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"loaded": len(req.Rows)})
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
	res, err := s.db.Query(req.CQL)
	if err != nil {
		if errors.Is(err, admission.ErrQueueFull) {
			// Shed by admission control: 429 tells clients to back off
			// and retry, mirroring the worker/coordinator behaviour.
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
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
