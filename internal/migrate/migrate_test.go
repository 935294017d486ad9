package migrate

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/metrics"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/zk"
)

func testSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// fastCfg keeps the state machine honest but the tests quick.
func fastCfg() Config {
	return Config{
		StepTimeout:      5 * time.Second,
		MaxStepAttempts:  3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		CutoverPause:     2 * time.Second,
		DualReadWindow:   30 * time.Millisecond,
		MaxCatchupRounds: 4,
	}
}

// routerStub records flips the driver applies.
type routerStub struct {
	mu    sync.Mutex
	moves map[string][]string
}

func (r *routerStub) MovePartition(partition string, to []string, window time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.moves == nil {
		r.moves = make(map[string][]string)
	}
	r.moves[partition] = append([]string(nil), to...)
}

func (r *routerStub) moved(partition string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moves[partition]
}

// rig is a two-worker migration testbed behind a fault-injecting transport.
type rig struct {
	srcW, dstW     *netexec.Worker
	srcSrv, dstSrv *httptest.Server
	srcURL, dstURL string
	zks            *zk.Store
	rt             *netexec.FaultRoundTripper
	httpc          *http.Client
	router         *routerStub
	reg            *metrics.Registry
	part           string
	rows           int64
}

func newMigRig(t *testing.T, rows int) *rig {
	t.Helper()
	return newMigRigWrapped(t, rows, nil)
}

// newMigRigWrapped is newMigRig with each worker's handler passed through
// wrap (nil leaves them bare); host is "source" or "target".
func newMigRigWrapped(t *testing.T, rows int, wrap func(host string, h http.Handler) http.Handler) *rig {
	t.Helper()
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	r := &rig{
		zks:    zk.NewStore(nil),
		rt:     netexec.NewFaultRoundTripper(nil, cluster.TransportConfig{}, 1),
		router: &routerStub{},
		reg:    metrics.NewRegistry(),
		part:   "events#0",
	}
	r.httpc = &http.Client{Transport: r.rt}
	r.srcW, r.dstW = netexec.NewWorker(partition.Config{}), netexec.NewWorker(partition.Config{})
	r.srcSrv = httptest.NewServer(wrap("source", r.srcW.Handler()))
	r.dstSrv = httptest.NewServer(wrap("target", r.dstW.Handler()))
	t.Cleanup(r.srcSrv.Close)
	t.Cleanup(r.dstSrv.Close)
	r.srcURL, r.dstURL = r.srcSrv.URL, r.dstSrv.URL
	src := &netexec.Client{BaseURL: r.srcURL}
	ctx := context.Background()
	if err := src.CreatePartition(ctx, r.part, testSchema()); err != nil {
		t.Fatal(err)
	}
	r.loadSource(t, rows)
	return r
}

// loadSource appends n rows to the source partition (live ingest).
func (r *rig) loadSource(t *testing.T, n int) {
	t.Helper()
	src := &netexec.Client{BaseURL: r.srcURL}
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
	}
	if _, err := src.Load(context.Background(), r.part, dims, mets); err != nil {
		t.Fatal(err)
	}
	r.rows += int64(n)
}

func (r *rig) driver(onStep func(Step, *Record) error) *Driver {
	return &Driver{
		ZK:      r.zks,
		HTTP:    r.httpc,
		Router:  r.router,
		Metrics: r.reg,
		OnStep:  onStep,
		Config:  fastCfg(),
	}
}

func (r *rig) newRecord() *Record {
	return &Record{Service: "events", Partition: r.part, Source: r.srcURL, Target: r.dstURL}
}

func hostOf(t *testing.T, rawurl string) string {
	t.Helper()
	u, err := url.Parse(rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// assertMigrated checks the terminal invariants of a completed move: the
// target holds every row, zk names the target as owner, the router saw the
// flip, and the source copy is gone.
func (r *rig) assertMigrated(t *testing.T, d *Driver, rec *Record) {
	t.Helper()
	if rec.Step != StepDone {
		t.Fatalf("step = %s, want done", rec.Step)
	}
	ctx := context.Background()
	dst := &netexec.Client{BaseURL: r.dstURL, HTTP: r.httpc}
	_, rows, err := dst.PartitionEpoch(ctx, r.part)
	if err != nil {
		t.Fatalf("target epoch: %v", err)
	}
	if rows != r.rows {
		t.Fatalf("target rows = %d, want %d", rows, r.rows)
	}
	owner, ok := d.Owner("events", r.part)
	if !ok || owner != r.dstURL {
		t.Fatalf("owner = %q (ok=%v), want %q", owner, ok, r.dstURL)
	}
	if got := r.router.moved(r.part); len(got) != 1 || got[0] != r.dstURL {
		t.Fatalf("router flip = %v, want [%s]", got, r.dstURL)
	}
	src := &netexec.Client{BaseURL: r.srcURL, HTTP: r.httpc}
	if _, _, err := src.PartitionEpoch(ctx, r.part); err == nil {
		t.Fatal("source copy survived the drop step")
	}
}

func TestMigrationHappyPath(t *testing.T) {
	r := newMigRig(t, 500)
	d := r.driver(nil)
	rec, err := d.Start(context.Background(), r.newRecord())
	if err != nil {
		t.Fatal(err)
	}
	r.assertMigrated(t, d, rec)
	if rec.MovedRows != r.rows {
		t.Fatalf("moved rows = %d, want %d", rec.MovedRows, r.rows)
	}
	if rec.MovedBytes <= 0 {
		t.Fatal("moved bytes not accounted")
	}
	if rec.UnavailableFor() <= 0 {
		t.Fatal("unavailability window not measured")
	}
	if rec.UnavailableFor() > fastCfg().CutoverPause+fastCfg().StepTimeout {
		t.Fatalf("unavailability window %v implausibly long", rec.UnavailableFor())
	}
	if got := r.reg.Counter("migrate.completed").Value(); got != 1 {
		t.Fatalf("migrate.completed = %d", got)
	}
}

// TestMigrationCatchupTailsLiveIngest lands fresh rows on the source after
// the snapshot copy; the delta rounds must carry them over before cutover.
func TestMigrationCatchupTailsLiveIngest(t *testing.T) {
	r := newMigRig(t, 300)
	var once sync.Once
	d := r.driver(func(step Step, rec *Record) error {
		if step == StepCatchup {
			once.Do(func() { r.loadSource(t, 120) })
		}
		return nil
	})
	rec, err := d.Start(context.Background(), r.newRecord())
	if err != nil {
		t.Fatal(err)
	}
	r.assertMigrated(t, d, rec)
	if rec.Rounds < 1 {
		t.Fatalf("catchup rounds = %d, want >= 1", rec.Rounds)
	}
}

// TestMigrationResumesAfterDriverKillAtEveryBoundary kills the driver (via
// the OnStep hook) at each step boundary and verifies a fresh driver
// resumes from the zk checkpoint and completes with nothing lost.
func TestMigrationResumesAfterDriverKillAtEveryBoundary(t *testing.T) {
	errKilled := errors.New("driver killed by chaos harness")
	steps := []Step{StepPrepare, StepCopy, StepCatchup, StepCutover, StepFlip, StepDrop}
	for _, kill := range steps {
		kill := kill
		t.Run(string(kill), func(t *testing.T) {
			r := newMigRig(t, 200)
			d1 := r.driver(func(step Step, rec *Record) error {
				if step == kill {
					return errKilled
				}
				return nil
			})
			rec, err := d1.Start(context.Background(), r.newRecord())
			if !errors.Is(err, errKilled) {
				t.Fatalf("kill not delivered: %v", err)
			}
			if rec.Step != kill {
				t.Fatalf("died at %s, checkpoint says %s", kill, rec.Step)
			}
			// The checkpoint must say the same: a resume re-enters here.
			saved, ok, err := d1.LoadRecord("events", r.part)
			if err != nil || !ok {
				t.Fatalf("checkpoint lost: %v", err)
			}
			if saved.Step != kill {
				t.Fatalf("persisted step = %s, want %s", saved.Step, kill)
			}
			d2 := r.driver(nil)
			rec, err = d2.Resume(context.Background(), "events", r.part)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			r.assertMigrated(t, d2, rec)
			if r.reg.Counter("migrate.resumed").Value() < 1 {
				t.Fatal("resume not counted")
			}
		})
	}
}

// TestMigrationChaosHostKills takes the source or the target down at every
// step boundary. Before the flip the driver must abort and roll back (a
// retried migration then completes); after the flip it must roll forward
// on resume. Either way the move eventually lands with zero lost rows.
func TestMigrationChaosHostKills(t *testing.T) {
	steps := []Step{StepPrepare, StepCopy, StepCatchup, StepCutover, StepFlip, StepDrop}
	for _, victim := range []string{"source", "target"} {
		for _, boundary := range steps {
			victim, boundary := victim, boundary
			t.Run(victim+"-down-at-"+string(boundary), func(t *testing.T) {
				r := newMigRig(t, 150)
				// Short cutover pause: when the victim is down, the fenced
				// retry loop must exhaust quickly instead of burning the
				// full pause budget.
				cfg := fastCfg()
				cfg.CutoverPause = 300 * time.Millisecond
				victimHost := hostOf(t, r.srcURL)
				if victim == "target" {
					victimHost = hostOf(t, r.dstURL)
				}
				var killed sync.Once
				d1 := r.driver(func(step Step, rec *Record) error {
					if step == boundary {
						killed.Do(func() { r.rt.SetHostDown(victimHost, true) })
					}
					return nil
				})
				d1.Config = cfg
				ctx := context.Background()
				rec, err := d1.Start(ctx, r.newRecord())
				r.rt.SetHostDown(victimHost, false)
				d2 := r.driver(nil)
				d2.Config = cfg
				switch {
				case err == nil:
					// The dead host was not on this step's path (e.g. the
					// target during drop): the move completed regardless.
				case rec.Step == StepAborted:
					if !errors.Is(err, ErrAborted) {
						t.Fatalf("aborted record but err = %v", err)
					}
					// Pre-flip failure: ownership must be untouched and the
					// source must still hold every row.
					if owner, ok := d1.Owner("events", r.part); ok {
						t.Fatalf("aborted migration published owner %q", owner)
					}
					src := &netexec.Client{BaseURL: r.srcURL, HTTP: r.httpc}
					if _, rows, serr := src.PartitionEpoch(ctx, r.part); serr != nil || rows != r.rows {
						t.Fatalf("source damaged by abort: rows=%d err=%v", rows, serr)
					}
					// A retried migration must now succeed end to end.
					rec, err = d2.Start(ctx, r.newRecord())
					if err != nil {
						t.Fatalf("retry after abort: %v", err)
					}
				default:
					// Post-flip failure: resume rolls forward.
					rec, err = d2.Resume(ctx, "events", r.part)
					if err != nil {
						t.Fatalf("roll-forward resume: %v", err)
					}
				}
				r.assertMigrated(t, d2, rec)
			})
		}
	}
}

// TestMigrationAbortLeavesSourceServing aborts against a permanently dead
// target and verifies the rollback contract: the source is unfenced, keeps
// its rows, accepts ingest, and no ownership was published.
func TestMigrationAbortLeavesSourceServing(t *testing.T) {
	r := newMigRig(t, 100)
	r.dstSrv.Close() // target is gone for good
	d := r.driver(nil)
	rec, err := d.Start(context.Background(), r.newRecord())
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if rec.Step != StepAborted || rec.Err == "" {
		t.Fatalf("record = %+v, want aborted with cause", rec)
	}
	if _, ok := d.Owner("events", r.part); ok {
		t.Fatal("aborted migration flipped ownership")
	}
	if got := r.router.moved(r.part); got != nil {
		t.Fatalf("aborted migration moved routing: %v", got)
	}
	ctx := context.Background()
	src := &netexec.Client{BaseURL: r.srcURL, HTTP: r.httpc}
	if _, rows, err := src.PartitionEpoch(ctx, r.part); err != nil || rows != r.rows {
		t.Fatalf("source after abort: rows=%d err=%v", rows, err)
	}
	// The fence must have been rolled back: ingest flows again.
	r.loadSource(t, 10)
	if got := r.reg.Counter("migrate.aborted").Value(); got != 1 {
		t.Fatalf("migrate.aborted = %d", got)
	}
}

// TestMigrationStartIsIdempotent re-starting a finished move must not
// re-run it, and starting over a half-done checkpoint resumes instead of
// forking.
func TestMigrationStartIsIdempotent(t *testing.T) {
	r := newMigRig(t, 50)
	d := r.driver(nil)
	ctx := context.Background()
	if _, err := d.Start(ctx, r.newRecord()); err != nil {
		t.Fatal(err)
	}
	moved := r.reg.Counter("migrate.moved_rows").Value()

	// A second Start with the same partition: the durable record is Done,
	// so this is a fresh migration — but the source partition no longer
	// exists, so prepare fails terminally and aborts without touching the
	// target's copy.
	rec2, err := d.Start(ctx, r.newRecord())
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("restart of finished move: err=%v step=%s", err, rec2.Step)
	}
	if got := r.reg.Counter("migrate.moved_rows").Value(); got != moved {
		t.Fatalf("restart re-shipped rows: %d -> %d", moved, got)
	}
	// Crucially, the abort's rollback must NOT drop the target copy: the
	// target is the committed owner, so its partition is live data.
	dst := &netexec.Client{BaseURL: r.dstURL, HTTP: r.httpc}
	if _, rows, err := dst.PartitionEpoch(ctx, r.part); err != nil || rows != r.rows {
		t.Fatalf("aborted restart destroyed live owner copy: rows=%d err=%v", rows, err)
	}
	if r.reg.Counter("migrate.rollback_drop_skipped").Value() != 1 {
		t.Fatal("ownership recheck did not fire")
	}
}

// pathLog records the requests that reach the rig's workers, in arrival
// order, as "host METHOD /path".
type pathLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *pathLog) wrap(host string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		l.mu.Lock()
		l.calls = append(l.calls, host+" "+req.Method+" "+req.URL.Path)
		l.mu.Unlock()
		h.ServeHTTP(rw, req)
	})
}

func (l *pathLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// TestShipRoundIsOneExportOneImport pins what a move costs the workers: it
// touches only the migration plane, and every ship round — the copy, each
// catch-up round and the fenced final delta — is one source /export
// followed by one target /import and nothing else before the next epoch
// read.
func TestShipRoundIsOneExportOneImport(t *testing.T) {
	var log pathLog
	r := newMigRigWrapped(t, 300, log.wrap)
	log.take() // the rig's own setup: partition create and load
	d := r.driver(nil)
	rec, err := d.Start(context.Background(), r.newRecord())
	if err != nil {
		t.Fatal(err)
	}
	calls := log.take()
	r.assertMigrated(t, d, rec)

	migrationPlane := map[string]bool{
		"source GET /schema":     true, // prepare reads the schema
		"target POST /partition": true, // and creates the partition
		"source GET /export":     true,
		"target POST /import":    true,
		"source GET /epoch":      true,
		"target GET /epoch":      true,
		"source POST /fence":     true,
		"source POST /droppart":  true,
	}
	exports, imports := 0, 0
	for i, c := range calls {
		if !migrationPlane[c] {
			t.Fatalf("call %d %q is outside the migration plane; calls: %q", i, c, calls)
		}
		switch c {
		case "source GET /export":
			exports++
			if i+2 >= len(calls) || calls[i+1] != "target POST /import" || calls[i+2] != "source GET /epoch" {
				t.Fatalf("ship round at call %d is not export, import, epoch read; calls: %q", i, calls)
			}
		case "target POST /import":
			imports++
		}
	}
	// Copy, the catch-up rounds that shipped, and the cutover's final delta.
	if rounds := 2 + rec.Rounds; exports != rounds || imports != rounds {
		t.Fatalf("%d exports and %d imports for %d ship rounds; calls: %q", exports, imports, rounds, calls)
	}
}

// TestMigrationResumesCheckpointWithDictVersions resumes from a checkpoint
// in the format that still carried per-column dictionary versions: the
// field is ignored and the move completes.
func TestMigrationResumesCheckpointWithDictVersions(t *testing.T) {
	r := newMigRig(t, 200)
	errKilled := errors.New("driver killed")
	d1 := r.driver(func(step Step, rec *Record) error {
		if step == StepCatchup {
			return errKilled
		}
		return nil
	})
	if _, err := d1.Start(context.Background(), r.newRecord()); !errors.Is(err, errKilled) {
		t.Fatalf("kill not delivered: %v", err)
	}
	path := recordPath("events", r.part)
	data, _, err := r.zks.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	old["dict_versions"] = map[string]uint64{"app": 3}
	if data, err = json.Marshal(old); err != nil {
		t.Fatal(err)
	}
	if _, err := r.zks.Set(path, data, -1); err != nil {
		t.Fatal(err)
	}
	d2 := r.driver(nil)
	rec, err := d2.Resume(context.Background(), "events", r.part)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	r.assertMigrated(t, d2, rec)
}
