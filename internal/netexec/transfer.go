// Worker-side shard transfer plane: the HTTP surface the migration driver
// (internal/migrate) uses to move a partition between workers online. The
// protocol is the paper's §IV-E handoff made concrete: snapshot-ship the
// partition over the brick transfer format, tail live ingest with
// epoch-bounded deltas, fence the source for a bounded cutover pause, flip
// ownership, and drop the source copy after the dual-read window. Every
// endpoint is idempotent so a driver that crashed mid-step can blindly
// re-issue the request it may or may not have completed.
package netexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"cubrick/internal/brick"
)

// fencedMsg is the body of the 503 a fenced partition returns to ingest.
// The migration driver fences the source during the cutover pause; loaders
// classify the 503 as retryable and re-send once ownership has flipped, so
// a bounded pause costs ingest latency, never rows.
const fencedMsg = "partition fenced for migration"

// Fence marks a partition as closed to ingest (on=true) or reopens it.
// Reads keep working — queries during the cutover pause are served by the
// fenced source until the ownership flip propagates. Fencing an unknown
// partition fails; unfencing one is a no-op so an abort path can always
// roll the fence back.
func (w *Worker) Fence(partition string, on bool) error {
	if on {
		if _, err := w.Store(partition); err != nil {
			return err
		}
	}
	w.fenceMu.Lock()
	defer w.fenceMu.Unlock()
	if w.fenced == nil {
		w.fenced = make(map[string]bool)
	}
	if on {
		w.fenced[partition] = true
	} else {
		delete(w.fenced, partition)
	}
	return nil
}

// IsFenced reports whether a partition currently rejects ingest.
func (w *Worker) IsFenced(partition string) bool {
	w.fenceMu.Lock()
	defer w.fenceMu.Unlock()
	return w.fenced[partition]
}

// RemovePartition drops everything the worker holds for a partition — its
// set entry (its store) and its fence flag.
// Removing an absent partition reports false without error — the migration
// driver's drop step must be safely re-runnable.
func (w *Worker) RemovePartition(name string) bool {
	if !w.parts.Drop(name) {
		return false
	}
	w.fenceMu.Lock()
	delete(w.fenced, name)
	w.fenceMu.Unlock()
	return true
}

// registerMigration wires the transfer-plane endpoints onto the worker
// mux.
func (w *Worker) registerMigration(mux *http.ServeMux) {
	mux.HandleFunc("/export", func(rw http.ResponseWriter, r *http.Request) {
		partition := r.URL.Query().Get("partition")
		st, err := w.Store(partition)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			since, err = strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(rw, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		blob, covered, err := st.ExportSince(since)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set(HeaderEpoch, strconv.FormatUint(covered, 10))
		rw.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.countAdd("worker.export.requests", 1)
		w.countAdd("worker.export.bytes", int64(len(blob)))
		rw.Write(blob)
	})
	mux.HandleFunc("/import", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		partition := r.URL.Query().Get("partition")
		st, err := w.Store(partition)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		blob, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		gained, err := st.ImportBricks(blob)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		// The driver forwards the source's covered epoch so the target's
		// epoch line continues where the source's left off; without this a
		// freshly copied store would restart near zero and look staler than
		// cached results pinned to the source's epochs.
		if e, ok := epochFromHeader(r.Header); ok {
			st.AdvanceEpochTo(e)
		}
		rw.Header().Set(HeaderEpoch, strconv.FormatUint(st.Epoch(), 10))
		w.countAdd("worker.import.requests", 1)
		w.countAdd("worker.import.rows", gained)
		fmt.Fprintf(rw, `{"rows":%d}`, gained)
	})
	mux.HandleFunc("/fence", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		partition := r.URL.Query().Get("partition")
		on := r.URL.Query().Get("fenced") != "false"
		if err := w.Fence(partition, on); err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(rw, `{"partition":%q,"fenced":%v}`, partition, on)
	})
	mux.HandleFunc("/droppart", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		partition := r.URL.Query().Get("partition")
		dropped := w.RemovePartition(partition)
		if dropped {
			w.countAdd("worker.droppart.count", 1)
		}
		fmt.Fprintf(rw, `{"dropped":%v}`, dropped)
	})
	mux.HandleFunc("/schema", func(rw http.ResponseWriter, r *http.Request) {
		partition := r.URL.Query().Get("partition")
		st, err := w.Store(partition)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(FromSchema(st.Schema()))
	})
	mux.HandleFunc("/epoch", func(rw http.ResponseWriter, r *http.Request) {
		partition := r.URL.Query().Get("partition")
		st, err := w.Store(partition)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusNotFound)
			return
		}
		e := st.Epoch()
		rw.Header().Set(HeaderEpoch, strconv.FormatUint(e, 10))
		fmt.Fprintf(rw, `{"epoch":%d,"rows":%d}`, e, st.Rows())
	})
}

// --- client side -----------------------------------------------------------

// get issues a GET and returns the body and headers; non-2xx statuses come
// back as a classified *HTTPStatusError like the POST path.
func (cl *Client) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, resp.Header, fmt.Errorf("%w: %s: %w", ErrWorkerFailed, path,
			&HTTPStatusError{Status: resp.StatusCode, Msg: string(msg)})
	}
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header, err
}

// Export fetches a partition's transfer blob covering epochs in (since,
// covered] and returns it with the covered epoch.
func (cl *Client) Export(ctx context.Context, partition string, since uint64) ([]byte, uint64, error) {
	path := "/export?partition=" + url.QueryEscape(partition) + "&since=" + strconv.FormatUint(since, 10)
	blob, hdr, err := cl.get(ctx, path)
	if err != nil {
		return nil, 0, err
	}
	covered, _ := epochFromHeader(hdr)
	return blob, covered, nil
}

// ImportBricks merges a transfer blob into a partition on the worker and
// advances the partition's epoch line to at least advanceTo (0 skips the
// advance). Returns the rows the partition gained.
func (cl *Client) ImportBricks(ctx context.Context, partition string, blob []byte, advanceTo uint64) (int64, error) {
	path := cl.BaseURL + "/import?partition=" + url.QueryEscape(partition)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if advanceTo > 0 {
		req.Header.Set(HeaderEpoch, strconv.FormatUint(advanceTo, 10))
	}
	resp, err := cl.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("%w: /import: %w", ErrWorkerFailed,
			&HTTPStatusError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))})
	}
	var out struct {
		Rows int64 `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Rows, nil
}

// Fence toggles a partition's ingest fence on the worker.
func (cl *Client) Fence(ctx context.Context, partition string, on bool) error {
	path := "/fence?partition=" + url.QueryEscape(partition) + "&fenced=" + strconv.FormatBool(on)
	_, err := cl.do(ctx, path, "application/json", nil)
	return err
}

// DropPartition removes a partition from the worker (idempotent).
func (cl *Client) DropPartition(ctx context.Context, partition string) error {
	_, err := cl.do(ctx, "/droppart?partition="+url.QueryEscape(partition), "application/json", nil)
	return err
}

// PartitionSchema fetches a partition's schema — what a migration driver
// needs to create the same partition on the target worker.
func (cl *Client) PartitionSchema(ctx context.Context, partition string) (brick.Schema, error) {
	body, _, err := cl.get(ctx, "/schema?partition="+url.QueryEscape(partition))
	if err != nil {
		return brick.Schema{}, err
	}
	var sj SchemaJSON
	if err := json.Unmarshal(body, &sj); err != nil {
		return brick.Schema{}, err
	}
	return sj.ToSchema(), nil
}

// PartitionEpoch reads a partition's current ingest epoch and row count.
func (cl *Client) PartitionEpoch(ctx context.Context, partition string) (uint64, int64, error) {
	body, _, err := cl.get(ctx, "/epoch?partition="+url.QueryEscape(partition))
	if err != nil {
		return 0, 0, err
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
		Rows  int64  `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, 0, err
	}
	return out.Epoch, out.Rows, nil
}
