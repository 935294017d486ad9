package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	cubrick "cubrick"
	"cubrick/internal/cluster"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	cfg := cubrick.Defaults()
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &server{db: db}
}

func postJSON(t *testing.T, handler http.HandlerFunc, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	handler(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("bad JSON response %q: %v", w.Body.String(), err)
	}
}

func createDemoTable(t *testing.T, s *server) {
	t.Helper()
	w := postJSON(t, s.tables, "/tables", map[string]interface{}{
		"name": "metrics",
		"schema": map[string]interface{}{
			"dimensions": []map[string]interface{}{
				{"name": "ds", "max": 30, "buckets": 6},
				{"name": "app", "max": 20, "buckets": 4},
			},
			"metrics": []map[string]interface{}{{"name": "value"}},
		},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("create table: %d %s", w.Code, w.Body)
	}
}

func TestServerCreateLoadQuery(t *testing.T) {
	s := newTestServer(t)
	createDemoTable(t, s)

	// Load rows.
	rows := make([]map[string]interface{}, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, map[string]interface{}{
			"dims":    []uint32{uint32(i) % 30, uint32(i) % 20},
			"metrics": []float64{float64(i)},
		})
	}
	w := postJSON(t, s.load, "/load", map[string]interface{}{"table": "metrics", "rows": rows})
	if w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}
	var loadResp map[string]int
	decode(t, w, &loadResp)
	if loadResp["loaded"] != 100 {
		t.Fatalf("loaded = %d", loadResp["loaded"])
	}

	// Query.
	w = postJSON(t, s.query, "/query", map[string]string{
		"cql": "SELECT SUM(value) AS total FROM metrics",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	var qResp struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
		Fanout  int         `json:"fanout"`
		Region  string      `json:"region"`
	}
	decode(t, w, &qResp)
	if len(qResp.Rows) != 1 || qResp.Rows[0][0] != 4950 {
		t.Fatalf("query result = %+v", qResp)
	}
	if qResp.Fanout < 1 || qResp.Region == "" {
		t.Fatalf("metadata missing: %+v", qResp)
	}

	// List tables.
	req := httptest.NewRequest(http.MethodGet, "/tables", nil)
	rec := httptest.NewRecorder()
	s.tables(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("list tables: %d", rec.Code)
	}
	var tables []map[string]interface{}
	decode(t, rec, &tables)
	if len(tables) != 1 {
		t.Fatalf("tables = %v", tables)
	}

	// Stats.
	req = httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec = httptest.NewRecorder()
	s.stats(rec, req)
	var stats map[string]interface{}
	decode(t, rec, &stats)
	if stats["queries"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestServerErrorPaths(t *testing.T) {
	s := newTestServer(t)
	// Bad JSON.
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte("{")))
	w := httptest.NewRecorder()
	s.query(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", w.Code)
	}
	// Bad CQL.
	w = postJSON(t, s.query, "/query", map[string]string{"cql": "garbage"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad CQL: %d", w.Code)
	}
	// Unknown table.
	w = postJSON(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM ghost"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown table: %d", w.Code)
	}
	// Duplicate table creation.
	createDemoTable(t, s)
	w = postJSON(t, s.tables, "/tables", map[string]interface{}{
		"name": "metrics",
		"schema": map[string]interface{}{
			"dimensions": []map[string]interface{}{{"name": "ds", "max": 30, "buckets": 6}},
		},
	})
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", w.Code)
	}
	// Load into unknown table.
	w = postJSON(t, s.load, "/load", map[string]interface{}{"table": "ghost", "rows": []interface{}{}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("load unknown: %d", w.Code)
	}
	// Wrong methods.
	req = httptest.NewRequest(http.MethodDelete, "/query", nil)
	w2 := httptest.NewRecorder()
	s.query(w2, req)
	if w2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("wrong method: %d", w2.Code)
	}
	// A request whose context is already cancelled: the deployment could
	// not answer, the query itself is fine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req = httptest.NewRequest(http.MethodPost, "/query",
		bytes.NewReader([]byte(`{"cql": "SELECT COUNT(*) FROM metrics"}`))).WithContext(ctx)
	w2 = httptest.NewRecorder()
	s.query(w2, req)
	if w2.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled request: %d %s", w2.Code, w2.Body)
	}
	// Every host of the fleet down: every region fails.
	for _, h := range s.db.Deployment().Fleet.Hosts() {
		h.SetState(cluster.Down)
	}
	w = postJSON(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM metrics"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("fleet down: %d %s", w.Code, w.Body)
	}
}
