// Package migrate moves a shard's partition between workers online — the
// paper's §IV-E graceful handoff turned into a crash-safe wire protocol.
//
// A move is a resumable idempotent state machine:
//
//	prepare → copy → catchup → cutover → flip → drop
//
// prepare creates the partition on the target; copy snapshot-ships the
// source's bricks over the brick transfer format; catchup loops
// epoch-bounded deltas while live ingest keeps landing on the source;
// cutover fences the source (ingest gets a retryable 503) and ships the
// final delta under a bounded pause; flip commits ownership — the zk
// record and the coordinator's routing table with a dual-read window — and
// drop removes the source copy once the window has closed. Every step
// checkpoints to zk before and after it runs, and every wire operation is
// idempotent, so a driver that dies at any step boundary resumes from the
// record (or, before the flip, aborts and rolls back to the source with no
// shard-map damage). The flip is the commit point: failures before it roll
// back, failures after it roll forward.
//
// Failure handling reuses the data plane's retry loop: every wire
// operation runs through netexec.QueryPolicy.Retry under stepPolicy, so it
// retries with capped jittered backoff while netexec.ClassifyError says the
// failure is transient, and the step aborts on a terminal error or an
// exhausted budget.
package migrate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cubrick/internal/metrics"
	"cubrick/internal/netexec"
	"cubrick/internal/zk"
)

// Step is a state-machine position. Steps only move forward; Done and
// Aborted are terminal.
type Step string

// The machine's states, in execution order.
const (
	StepPrepare Step = "prepare"
	StepCopy    Step = "copy"
	StepCatchup Step = "catchup"
	StepCutover Step = "cutover"
	StepFlip    Step = "flip"
	StepDrop    Step = "drop"
	StepDone    Step = "done"
	StepAborted Step = "aborted"
)

// order maps each step to its successor.
var order = map[Step]Step{
	StepPrepare: StepCopy,
	StepCopy:    StepCatchup,
	StepCatchup: StepCutover,
	StepCutover: StepFlip,
	StepFlip:    StepDrop,
	StepDrop:    StepDone,
}

// Record is a migration's durable checkpoint, stored in zk under
// /migrate/<service>/<partition>. It holds everything a fresh driver
// needs to resume: where the machine stopped, which epochs already
// shipped, and the accounting the bench reports.
type Record struct {
	Service   string `json:"service"`
	Shard     int64  `json:"shard"`
	Partition string `json:"partition"`
	Source    string `json:"source"` // worker base URL losing the shard
	Target    string `json:"target"` // worker base URL gaining it
	Step      Step   `json:"step"`

	// ShippedEpoch is the highest source epoch the target provably holds;
	// the next delta exports since this point.
	ShippedEpoch uint64 `json:"shipped_epoch"`
	// MovedBytes / MovedRows account the transfer cost (DynaHash's moved-
	// bytes objective). Rows count the net gain on the target, so replaced
	// bricks do not double-count.
	MovedBytes int64 `json:"moved_bytes"`
	MovedRows  int64 `json:"moved_rows"`
	// Rounds counts catch-up iterations before the cutover.
	Rounds int `json:"catchup_rounds"`
	// FencedAt/FlippedAt (unix nanos) bound the write-unavailability
	// window: ingest rejects between the fence and the flip.
	FencedAt  int64 `json:"fenced_at,omitempty"`
	FlippedAt int64 `json:"flipped_at,omitempty"`
	// Err records why an aborted migration gave up.
	Err string `json:"err,omitempty"`
}

// UnavailableFor returns the measured ingest-unavailability window (zero
// until the flip lands).
func (r *Record) UnavailableFor() time.Duration {
	if r.FencedAt == 0 || r.FlippedAt == 0 {
		return 0
	}
	return time.Duration(r.FlippedAt - r.FencedAt)
}

// Router is the coordinator-side routing table the flip applies to.
// *netexec.Cluster implements it; tests interpose propagation delay.
type Router interface {
	MovePartition(partition string, to []string, dualReadWindow time.Duration)
}

// stepPolicy is the retry budget of every wire operation inside a step:
// five tries, 10 ms backoff doubling to 1 s, jittered.
var stepPolicy = netexec.QueryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second}

// Config tunes the driver. The zero value gets production-shaped
// defaults. cubrick-coordinator sets no field, so there the defaults are
// the driver's constants: no flag reaches them.
type Config struct {
	// StepTimeout bounds each state-machine step including its retries
	// (default 30s).
	StepTimeout time.Duration
	// CutoverPause bounds how long the source may stay fenced while the
	// final delta ships (default 2s). If the gap cannot close inside the
	// pause the migration aborts and unfences — a slow cutover must
	// degrade to a retry, not an outage.
	CutoverPause time.Duration
	// DualReadWindow is how long after the flip queries read both
	// placements (default 2s). The source copy is dropped only after the
	// window closes.
	DualReadWindow time.Duration
	// MaxCatchupRounds bounds the pre-cutover delta loop (default 6): if
	// ingest outruns the deltas for this many rounds the driver proceeds
	// to cutover and lets the fence close the gap.
	MaxCatchupRounds int
}

func (c Config) withDefaults() Config {
	if c.StepTimeout <= 0 {
		c.StepTimeout = 30 * time.Second
	}
	if c.CutoverPause <= 0 {
		c.CutoverPause = 2 * time.Second
	}
	if c.DualReadWindow <= 0 {
		c.DualReadWindow = 2 * time.Second
	}
	if c.MaxCatchupRounds <= 0 {
		c.MaxCatchupRounds = 6
	}
	return c
}

// ErrAborted wraps the cause when a migration rolls back.
var ErrAborted = errors.New("migrate: aborted")

// Driver executes migrations. One driver may run moves sequentially; a
// fresh driver resumes whatever an earlier (crashed) one checkpointed.
type Driver struct {
	// ZK persists migration records; required.
	ZK *zk.Store
	// HTTP talks to workers; http.DefaultClient when nil.
	HTTP *http.Client
	// Router, when set, receives the ownership flip (the coordinator's
	// routing table).
	Router Router
	// Metrics, when set, receives step counters/durations and the moved-
	// bytes accounting.
	Metrics *metrics.Registry
	// OnStep, when set, runs at every step boundary before the step
	// executes. Returning an error stops the driver there — the chaos
	// tests' kill switch.
	OnStep func(step Step, rec *Record) error
	// Config tunes timeouts and windows.
	Config Config
}

// recordPath is where a migration checkpoints.
func recordPath(service, partition string) string {
	return "/migrate/" + service + "/" + partition
}

// ownerPath is the zk node holding a partition's owning worker URL.
func ownerPath(service, partition string) string {
	return "/owners/" + service + "/" + partition
}

// SaveRecord checkpoints rec to zk.
func (d *Driver) SaveRecord(rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	path := recordPath(rec.Service, rec.Partition)
	if err := d.ZK.CreateAll(path, data); err != nil {
		return err
	}
	_, err = d.ZK.Set(path, data, -1)
	return err
}

// LoadRecord fetches a migration's checkpoint, ok=false when none exists.
func (d *Driver) LoadRecord(service, partition string) (*Record, bool, error) {
	data, _, err := d.ZK.Get(recordPath(service, partition))
	if errors.Is(err, zk.ErrNoNode) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false, err
	}
	return &rec, true, nil
}

// Owner reads the committed owner of a partition from zk (ok=false when
// no flip has ever recorded one).
func (d *Driver) Owner(service, partition string) (string, bool) {
	data, _, err := d.ZK.Get(ownerPath(service, partition))
	if err != nil || len(data) == 0 {
		return "", false
	}
	return string(data), true
}

func (d *Driver) client() *http.Client {
	if d.HTTP != nil {
		return d.HTTP
	}
	return http.DefaultClient
}

func (d *Driver) count(name string, delta int64) {
	if d.Metrics != nil {
		d.Metrics.Counter(name).Add(delta)
	}
}

func (d *Driver) observe(name string, dur time.Duration) {
	if d.Metrics != nil {
		d.Metrics.Histogram(name).Observe(dur.Seconds())
	}
}

// retried counts one retry of a step's wire operation.
func (d *Driver) retried() { d.count("migrate.retries", 1) }

// Start begins (or resumes) a migration moving partition from source to
// target. If zk already holds an unfinished record for the partition the
// recorded move resumes instead — the caller's parameters must not fork a
// half-done handoff.
func (d *Driver) Start(ctx context.Context, rec *Record) (*Record, error) {
	if existing, ok, err := d.LoadRecord(rec.Service, rec.Partition); err != nil {
		return rec, err
	} else if ok && existing.Step != StepDone && existing.Step != StepAborted {
		d.count("migrate.resumed", 1)
		return d.Run(ctx, existing)
	}
	if rec.Step == "" {
		rec.Step = StepPrepare
	}
	if err := d.SaveRecord(rec); err != nil {
		return rec, err
	}
	d.count("migrate.started", 1)
	return d.Run(ctx, rec)
}

// Resume picks up a checkpointed migration after a driver crash.
func (d *Driver) Resume(ctx context.Context, service, partition string) (*Record, error) {
	rec, ok, err := d.LoadRecord(service, partition)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("migrate: no record for %s/%s", service, partition)
	}
	if rec.Step == StepDone || rec.Step == StepAborted {
		return rec, nil
	}
	d.count("migrate.resumed", 1)
	return d.Run(ctx, rec)
}

// Run drives the state machine from rec.Step to completion, abort, or a
// step-boundary stop from OnStep.
func (d *Driver) Run(ctx context.Context, rec *Record) (*Record, error) {
	cfg := d.Config.withDefaults()
	for rec.Step != StepDone && rec.Step != StepAborted {
		step := rec.Step
		if d.OnStep != nil {
			if err := d.OnStep(step, rec); err != nil {
				// The harness killed the driver at this boundary: leave the
				// checkpoint exactly as persisted so a resume re-enters here.
				return rec, err
			}
		}
		sctx, cancel := context.WithTimeout(ctx, cfg.StepTimeout)
		start := time.Now()
		err := d.runStep(sctx, step, rec)
		cancel()
		d.count("migrate.step."+string(step)+".count", 1)
		d.observe("migrate.step."+string(step)+".seconds", time.Since(start))
		if err != nil {
			if step == StepFlip || step == StepDrop {
				// Past the commit point: the new owner is live. Rolling back
				// would strand published ownership, so surface the error and
				// let a later Resume roll forward.
				return rec, err
			}
			return d.abort(rec, err)
		}
		rec.Step = order[step]
		if serr := d.SaveRecord(rec); serr != nil {
			return rec, serr
		}
	}
	if rec.Step == StepDone {
		d.count("migrate.completed", 1)
		if w := rec.UnavailableFor(); w > 0 {
			d.observe("migrate.unavailability_seconds", w)
		}
	}
	return rec, nil
}

// runStep executes a single state.
func (d *Driver) runStep(ctx context.Context, step Step, rec *Record) error {
	src := &netexec.Client{BaseURL: rec.Source, HTTP: d.client()}
	dst := &netexec.Client{BaseURL: rec.Target, HTTP: d.client()}
	switch step {
	case StepPrepare:
		return d.prepare(ctx, rec, src, dst)
	case StepCopy:
		return d.ship(ctx, rec, src, dst)
	case StepCatchup:
		return d.catchup(ctx, rec, src, dst)
	case StepCutover:
		return d.cutover(ctx, rec, src, dst)
	case StepFlip:
		return d.flip(ctx, rec)
	case StepDrop:
		return d.drop(ctx, rec, src)
	default:
		return fmt.Errorf("migrate: unknown step %q", step)
	}
}

// prepare creates the partition on the target with the source's schema. A
// 409 means a previous incarnation already created it — idempotent resume.
func (d *Driver) prepare(ctx context.Context, rec *Record, src, dst *netexec.Client) error {
	return stepPolicy.Retry(ctx, d.retried, func(ctx context.Context, _ int) error {
		schema, err := src.PartitionSchema(ctx, rec.Partition)
		if err != nil {
			return err
		}
		err = dst.CreatePartition(ctx, rec.Partition, schema)
		var se *netexec.HTTPStatusError
		if errors.As(err, &se) && se.Status == http.StatusConflict {
			return nil
		}
		return err
	})
}

// ship exports the source since rec.ShippedEpoch and imports into the
// target, advancing the record's shipped epoch. Used by copy (since 0),
// every catch-up round, and the fenced final delta.
func (d *Driver) ship(ctx context.Context, rec *Record, src, dst *netexec.Client) error {
	return stepPolicy.Retry(ctx, d.retried, func(ctx context.Context, _ int) error {
		blob, covered, err := src.Export(ctx, rec.Partition, rec.ShippedEpoch)
		if err != nil {
			return err
		}
		rows, err := dst.ImportBricks(ctx, rec.Partition, blob, covered)
		if err != nil {
			return err
		}
		rec.MovedBytes += int64(len(blob))
		rec.MovedRows += rows
		rec.ShippedEpoch = covered
		d.count("migrate.moved_bytes", int64(len(blob)))
		d.count("migrate.moved_rows", rows)
		return d.SaveRecord(rec)
	})
}

// catchup tails live ingest: delta rounds until the source's epoch stops
// outrunning the shipped point, or the round budget forces the cutover.
func (d *Driver) catchup(ctx context.Context, rec *Record, src, dst *netexec.Client) error {
	cfg := d.Config.withDefaults()
	for round := 0; round < cfg.MaxCatchupRounds; round++ {
		var srcEpoch uint64
		err := stepPolicy.Retry(ctx, d.retried, func(ctx context.Context, _ int) error {
			var err error
			srcEpoch, _, err = src.PartitionEpoch(ctx, rec.Partition)
			return err
		})
		if err != nil {
			return err
		}
		if srcEpoch <= rec.ShippedEpoch {
			return nil // gap closed while unfenced — the cheap exit
		}
		rec.Rounds++
		if err := d.ship(ctx, rec, src, dst); err != nil {
			return err
		}
	}
	// Ingest kept the gap open for every round; the bounded fence in
	// cutover closes it by construction.
	return nil
}

// cutover fences the source and ships the final delta under the pause
// budget. On any failure the fence is rolled back by abort().
func (d *Driver) cutover(ctx context.Context, rec *Record, src, dst *netexec.Client) error {
	cfg := d.Config.withDefaults()
	pctx, cancel := context.WithTimeout(ctx, cfg.CutoverPause)
	defer cancel()
	if err := stepPolicy.Retry(pctx, d.retried, func(ctx context.Context, _ int) error {
		return src.Fence(ctx, rec.Partition, true)
	}); err != nil {
		return err
	}
	if rec.FencedAt == 0 {
		rec.FencedAt = time.Now().UnixNano()
	}
	// With ingest fenced the source epoch is frozen: one delta closes the
	// gap. Re-runs (resume after a crash here) ship an empty delta.
	if err := d.ship(pctx, rec, src, dst); err != nil {
		return err
	}
	// Paranoia: verify the gap is actually closed before committing.
	return stepPolicy.Retry(pctx, d.retried, func(ctx context.Context, _ int) error {
		srcEpoch, srcRows, err := src.PartitionEpoch(ctx, rec.Partition)
		if err != nil {
			return err
		}
		if srcEpoch > rec.ShippedEpoch {
			return fmt.Errorf("migrate: fenced source epoch %d still past shipped %d", srcEpoch, rec.ShippedEpoch)
		}
		_, dstRows, err := dst.PartitionEpoch(ctx, rec.Partition)
		if err != nil {
			return err
		}
		if dstRows != srcRows {
			return fmt.Errorf("migrate: cutover row mismatch: source %d target %d", srcRows, dstRows)
		}
		return nil
	})
}

// flip commits the move: zk ownership, then coordinator routing with the
// dual-read window. This is the commit point — once the
// zk owner node names the target, failures roll forward.
func (d *Driver) flip(ctx context.Context, rec *Record) error {
	path := ownerPath(rec.Service, rec.Partition)
	if err := d.ZK.CreateAll(path, []byte(rec.Target)); err != nil {
		return err
	}
	if _, err := d.ZK.Set(path, []byte(rec.Target), -1); err != nil {
		return err
	}
	if d.Router != nil {
		d.Router.MovePartition(rec.Partition, []string{rec.Target}, d.Config.withDefaults().DualReadWindow)
	}
	if rec.FlippedAt == 0 {
		rec.FlippedAt = time.Now().UnixNano()
	}
	return nil
}

// drop waits out the dual-read window, then removes the source copy.
func (d *Driver) drop(ctx context.Context, rec *Record, src *netexec.Client) error {
	cfg := d.Config.withDefaults()
	if rec.FlippedAt > 0 {
		elapsed := time.Since(time.Unix(0, rec.FlippedAt))
		if wait := cfg.DualReadWindow - elapsed; wait > 0 {
			if err := netexec.SleepCtx(ctx, wait); err != nil {
				return err
			}
		}
	}
	return stepPolicy.Retry(ctx, d.retried, func(ctx context.Context, _ int) error {
		return src.DropPartition(ctx, rec.Partition)
	})
}

// abort rolls a pre-flip failure back to the source: unfence it, drop the
// target's partial copy, and mark the record aborted. The shard map was
// never touched (the flip is the only writer), so queries and ingest
// continue against the source as if the migration never started.
func (d *Driver) abort(rec *Record, cause error) (*Record, error) {
	cfg := d.Config.withDefaults()
	// Rollback uses a fresh context: the step's deadline (or the caller's
	// cancel) may be the very reason we are here, and the rollback must
	// still run.
	rctx, cancel := context.WithTimeout(context.Background(), cfg.StepTimeout)
	defer cancel()
	src := &netexec.Client{BaseURL: rec.Source, HTTP: d.client()}
	dst := &netexec.Client{BaseURL: rec.Target, HTTP: d.client()}
	if err := stepPolicy.Retry(rctx, d.retried, func(ctx context.Context, _ int) error {
		return src.Fence(ctx, rec.Partition, false)
	}); err != nil {
		// The source may itself be the dead party; the fence flag dies
		// with its process. Record and continue the rollback.
		d.count("migrate.rollback_unfence_failed", 1)
	}
	// Dropping the target's partial copy re-checks ownership first: if a
	// previous incarnation of this move already committed the flip, the
	// target holds the LIVE copy and deleting it would destroy data (the
	// same recheck shardmgr's delayed drop performs).
	if owner, ok := d.Owner(rec.Service, rec.Partition); ok && owner == rec.Target {
		d.count("migrate.rollback_drop_skipped", 1)
	} else if err := stepPolicy.Retry(rctx, d.retried, func(ctx context.Context, _ int) error {
		return dst.DropPartition(ctx, rec.Partition)
	}); err != nil {
		d.count("migrate.rollback_drop_failed", 1)
	}
	rec.Step = StepAborted
	rec.Err = cause.Error()
	d.count("migrate.aborted", 1)
	if serr := d.SaveRecord(rec); serr != nil {
		return rec, fmt.Errorf("%w: %v (checkpoint: %v)", ErrAborted, cause, serr)
	}
	return rec, fmt.Errorf("%w: %v", ErrAborted, cause)
}
