package cluster

import (
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cubrick/internal/randutil"
	"cubrick/internal/simclock"
)

var epoch = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

func TestFleetAddRemove(t *testing.T) {
	f := NewFleet()
	h := &Host{Name: "a", Rack: "r0", Region: "east"}
	if err := f.Add(h); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(&Host{Name: "a"}); !errors.Is(err, ErrDuplicateHost) {
		t.Fatalf("duplicate add = %v, want ErrDuplicateHost", err)
	}
	got, err := f.Host("a")
	if err != nil || got != h {
		t.Fatalf("Host = %v, %v", got, err)
	}
	if _, err := f.Host("zzz"); !errors.Is(err, ErrNoHost) {
		t.Fatalf("unknown host = %v, want ErrNoHost", err)
	}
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("a"); !errors.Is(err, ErrNoHost) {
		t.Fatalf("double remove = %v, want ErrNoHost", err)
	}
	if f.Size() != 0 {
		t.Fatalf("Size = %d, want 0", f.Size())
	}
}

func TestBuildLayout(t *testing.T) {
	f := Build(BuildConfig{
		Regions:        []string{"east", "west", "central"},
		RacksPerRegion: 2,
		HostsPerRack:   3,
		CapacityBytes:  1 << 30,
	})
	if f.Size() != 18 {
		t.Fatalf("Size = %d, want 18", f.Size())
	}
	east := f.Region("east")
	if len(east) != 6 {
		t.Fatalf("east region = %d hosts, want 6", len(east))
	}
	for _, h := range east {
		if h.Region != "east" || h.CapacityBytes != 1<<30 {
			t.Fatalf("bad host %+v", h)
		}
		if h.State() != Up {
			t.Fatalf("new host state = %v, want up", h.State())
		}
	}
	// Hosts sorted by name.
	hosts := f.Hosts()
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].Name >= hosts[i].Name {
			t.Fatal("Hosts() not sorted")
		}
	}
}

func TestHostAvailability(t *testing.T) {
	h := &Host{Name: "x"}
	for s, want := range map[State]bool{
		Up: true, Draining: true, Drained: false, Down: false, Repairing: false,
	} {
		h.SetState(s)
		if h.Available() != want {
			t.Errorf("Available in %v = %v, want %v", s, h.Available(), want)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Up: "up", Draining: "draining", Drained: "drained",
		Down: "down", Repairing: "repairing", State(42): "State(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestConfigForUnavailability(t *testing.T) {
	cfg := ConfigForUnavailability(1e-4, time.Minute)
	if got := cfg.Unavailability(); math.Abs(got-1e-4) > 1e-9 {
		t.Fatalf("Unavailability = %v, want 1e-4", got)
	}
}

func TestConfigForUnavailabilityPanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConfigForUnavailability(%v) did not panic", p)
				}
			}()
			ConfigForUnavailability(p, time.Minute)
		}()
	}
}

// Property: round-tripping any p in (0,1) through ConfigForUnavailability
// recovers p.
func TestUnavailabilityRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		p := (float64(raw) + 1) / 70000 // (0, ~0.94)
		cfg := ConfigForUnavailability(p, 30*time.Second)
		return math.Abs(cfg.Unavailability()-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorStationaryUnavailability(t *testing.T) {
	clk := simclock.NewSim(epoch)
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 10, HostsPerRack: 10})
	// Target 5% unavailability with 1-minute outages so a simulated day
	// gives a tight estimate.
	cfg := ConfigForUnavailability(0.05, time.Minute)
	in := NewInjector(clk, f, cfg, randutil.New(42))
	in.Start()

	samples, down := 0, 0
	for i := 0; i < 24*60; i++ {
		clk.Advance(time.Minute)
		for _, h := range f.Hosts() {
			samples++
			if h.State() == Down {
				down++
			}
		}
	}
	got := float64(down) / float64(samples)
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("measured unavailability = %v, want ~0.05", got)
	}
}

func TestInjectorPermanentFailuresAndRepair(t *testing.T) {
	clk := simclock.NewSim(epoch)
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 5, HostsPerRack: 10})
	cfg := FailureConfig{
		PermanentMTBF: 10 * 24 * time.Hour, // ~5 failures/day across 50 hosts
		RepairTime:    24 * time.Hour,
	}
	in := NewInjector(clk, f, cfg, randutil.New(7))
	var events []State
	in.Subscribe(ObserverFunc(func(h *Host, s State, at time.Time) {
		events = append(events, s)
	}))
	in.Start()
	clk.Advance(7 * 24 * time.Hour)
	if in.Repairs() == 0 {
		t.Fatal("no permanent failures in a simulated week")
	}
	// Expect ~35 repairs in a week (50 hosts / 10-day MTBF * 7 days).
	if r := in.Repairs(); r < 10 || r > 80 {
		t.Fatalf("Repairs = %d, want within [10,80] of expectation ~35", r)
	}
	sawRepair, sawReturn := false, false
	for _, s := range events {
		if s == Repairing {
			sawRepair = true
		}
		if s == Up {
			sawReturn = true
		}
	}
	if !sawRepair || !sawReturn {
		t.Fatalf("observer missed transitions: repair=%v return=%v", sawRepair, sawReturn)
	}
}

func TestInjectorStop(t *testing.T) {
	clk := simclock.NewSim(epoch)
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 1, HostsPerRack: 5})
	cfg := ConfigForUnavailability(0.5, time.Minute)
	in := NewInjector(clk, f, cfg, randutil.New(1))
	in.Start()
	in.Stop()
	clk.Advance(24 * time.Hour)
	for _, h := range f.Hosts() {
		if h.State() != Up {
			t.Fatal("stopped injector still failed hosts")
		}
	}
}

func TestDrainWorkflow(t *testing.T) {
	clk := simclock.NewSim(epoch)
	h := &Host{Name: "x"}
	d := NewDrainer(clk)
	shards := 3
	moved := false
	d.Drain(h,
		func() { moved = true },
		func() bool { shards--; return shards <= 0 },
		time.Second,
		nil,
	)
	if !moved {
		t.Fatal("moveShards not called")
	}
	if h.State() != Draining {
		t.Fatalf("state = %v, want draining", h.State())
	}
	clk.Advance(10 * time.Second)
	if h.State() != Drained {
		t.Fatalf("state = %v, want drained", h.State())
	}
}

func TestDrainAbortsIfHostFails(t *testing.T) {
	clk := simclock.NewSim(epoch)
	h := &Host{Name: "x"}
	d := NewDrainer(clk)
	d.Drain(h, func() {}, func() bool { return false }, time.Second, nil)
	h.SetState(Down) // host dies mid-drain
	clk.Advance(time.Minute)
	if h.State() != Down {
		t.Fatalf("state = %v, want down (drain must not resurrect)", h.State())
	}
}

// answerAll is an inner transport that answers every request 200.
type answerAll struct{ reached atomic.Int64 }

func (a *answerAll) RoundTrip(req *http.Request) (*http.Response, error) {
	a.reached.Add(1)
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
}

// call makes one request to host through rt under ctx.
func call(t *testing.T, rt http.RoundTripper, ctx context.Context, host string) error {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+host+"/partial", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func TestFaultTransportHealthy(t *testing.T) {
	inner := &answerAll{}
	rt := NewFaultTransport(inner, DefaultTransportConfig(), 5)
	ctx, calls := WithCalls(context.Background(), 1)
	for _, host := range []string{"a", "b", "a"} {
		if err := call(t, rt, ctx, host); err != nil {
			t.Fatalf("call to %s = %v", host, err)
		}
	}
	if inner.reached.Load() != 3 {
		t.Fatalf("inner transport reached %d times, want 3", inner.reached.Load())
	}
	if hosts, lat := calls.Answered(); hosts != 2 || lat <= 0 {
		t.Fatalf("Answered = %d hosts, latency %v; want 2 hosts and a positive latency", hosts, lat)
	}
}

func TestFaultTransportDownHost(t *testing.T) {
	inner := &answerAll{}
	rt := NewFaultTransport(inner, DefaultTransportConfig(), 1)
	rt.SetHostDown("a", true)
	ctx, calls := WithCalls(context.Background(), 1)
	if err := call(t, rt, ctx, "a"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("call to down host = %v, want ErrHostDown", err)
	}
	if hosts, lat := calls.Answered(); inner.reached.Load() != 0 || hosts != 0 || lat != 0 {
		t.Fatalf("a down host's call reached the wire (%d) or answered (%d, %v)", inner.reached.Load(), hosts, lat)
	}
	rt.SetHostDown("a", false)
	if err := call(t, rt, ctx, "a"); err != nil {
		t.Fatalf("call after the host came back = %v", err)
	}
}

func TestFaultTransportRequestFailures(t *testing.T) {
	cfg := DefaultTransportConfig()
	cfg.RequestFailureProb = 0.5
	rt := NewFaultTransport(&answerAll{}, cfg, 9)
	failures := 0
	for i := 0; i < 1000; i++ {
		// No Calls on the context: key 0, counted per host.
		if err := call(t, rt, context.Background(), "a"); errors.Is(err, ErrRequestFailed) {
			failures++
		}
	}
	if failures < 400 || failures > 600 {
		t.Fatalf("failures = %d/1000, want ~500", failures)
	}
}

// A draw is a function of (seed, key, host, n) alone: one seed and one set
// of query keys give the same outcomes whatever order concurrent calls
// reach the transport in, and a call that never starts (a peer a
// fail-fast cancel stopped) shifts no other call's draw.
func TestFaultTransportDrawsByKey(t *testing.T) {
	cfg := DefaultTransportConfig()
	cfg.RequestFailureProb = 0.3
	hosts := []string{"h0", "h1", "h2", "h3"}
	const keys, perHost = 40, 3
	type job struct {
		key  int
		host int
	}
	type outcome struct {
		failed  [][perHost]bool // by host, then n
		latency time.Duration
	}
	// run issues every (key, host) job on its own goroutine, started in
	// the order order gives, perHost calls each; skip leaves jobs out.
	run := func(order *randutil.Source, skip func(job) bool) []outcome {
		rt := NewFaultTransport(&answerAll{}, cfg, 77)
		out := make([]outcome, keys)
		ctxs := make([]context.Context, keys)
		calls := make([]*Calls, keys)
		var jobs []job
		for k := range out {
			out[k].failed = make([][perHost]bool, len(hosts))
			ctxs[k], calls[k] = WithCalls(context.Background(), uint64(k+1))
			for h := range hosts {
				if j := (job{k, h}); skip == nil || !skip(j) {
					jobs = append(jobs, j)
				}
			}
		}
		order.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < perHost; n++ {
					out[j.key].failed[j.host][n] = call(t, rt, ctxs[j.key], hosts[j.host]) != nil
				}
			}()
		}
		wg.Wait()
		for k := range out {
			_, out[k].latency = calls[k].Answered()
		}
		return out
	}
	want := run(randutil.New(1), nil)
	faults := 0
	for _, o := range want {
		for _, f := range o.failed {
			for _, failed := range f {
				if failed {
					faults++
				}
			}
		}
	}
	if faults == 0 || faults == keys*len(hosts)*perHost {
		t.Fatalf("%d of %d calls failed: the draws do not vary", faults, keys*len(hosts)*perHost)
	}
	for seed := int64(2); seed < 6; seed++ {
		if got := run(randutil.New(seed), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d: outcomes differ from order 1", seed)
		}
	}
	skipped := func(j job) bool { return j.key%3 == 0 && j.host == 1 }
	got := run(randutil.New(9), skipped)
	for k := range got {
		for h := range hosts {
			if skipped(job{k, h}) {
				continue
			}
			if got[k].failed[h] != want[k].failed[h] {
				t.Fatalf("key %d host %s: outcomes %v with a skipped peer, %v without", k+1, hosts[h], got[k].failed[h], want[k].failed[h])
			}
		}
	}
}

func TestFanOutLatencyIsMax(t *testing.T) {
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 4, HostsPerRack: 16})
	cfg := DefaultTransportConfig()
	cfg.RequestFailureProb = 0
	tr := NewTransport(f, cfg)
	rnd := randutil.New(11)
	var names []string
	for _, h := range f.Hosts() {
		names = append(names, h.Name)
	}
	// Higher fan-out must not be faster on average (tail-at-scale).
	const trials = 300
	meanAt := func(n int) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			lat, err := tr.FanOut(names[:n], 0, rnd)
			if err != nil {
				t.Fatal(err)
			}
			sum += lat.Seconds()
		}
		return sum / trials
	}
	m1, m64 := meanAt(1), meanAt(64)
	if m64 <= m1 {
		t.Fatalf("fan-out 64 mean %v not above fan-out 1 mean %v", m64, m1)
	}
}

func TestFanOutFailsIfAnyHostDown(t *testing.T) {
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 1, HostsPerRack: 4})
	hosts := f.Hosts()
	hosts[2].SetState(Down)
	cfg := DefaultTransportConfig()
	cfg.RequestFailureProb = 0
	tr := NewTransport(f, cfg)
	names := []string{hosts[0].Name, hosts[1].Name, hosts[2].Name, hosts[3].Name}
	_, err := tr.FanOut(names, 0, randutil.New(3))
	if !errors.Is(err, ErrHostDown) {
		t.Fatalf("FanOut with down host = %v, want ErrHostDown", err)
	}
	if _, err := tr.FanOut([]string{"ghost"}, 0, randutil.New(3)); !errors.Is(err, ErrNoHost) {
		t.Fatalf("FanOut to unknown host = %v, want ErrNoHost", err)
	}
}

func TestFanOutDeadline(t *testing.T) {
	f := Build(BuildConfig{Regions: []string{"east"}, RacksPerRegion: 1, HostsPerRack: 1})
	cfg := DefaultTransportConfig()
	cfg.RequestFailureProb = 0
	tr := NewTransport(f, cfg)
	_, err := tr.FanOut([]string{f.Hosts()[0].Name}, time.Nanosecond, randutil.New(3))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("FanOut with tiny deadline = %v, want ErrTimeout", err)
	}
}
