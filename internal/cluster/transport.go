package cluster

import (
	"errors"
	"fmt"
	"time"

	"cubrick/internal/randutil"
)

// Transport errors.
var (
	// ErrHostDown is returned when the target host is not serving.
	ErrHostDown = errors.New("cluster: host down")
	// ErrRequestFailed is returned for per-request non-deterministic
	// failures (dropped connections, OOM kills, etc.).
	ErrRequestFailed = errors.New("cluster: request failed")
	// ErrTimeout is returned when a request's sampled latency exceeds the
	// caller's deadline.
	ErrTimeout = errors.New("cluster: request timed out")
)

// TransportConfig parameterizes the per-call fault and latency model:
// FaultTransport draws from it on the wire, and Transport.FanOut samples
// it analytically for Fig 5.
type TransportConfig struct {
	// Latency is the per-request service latency model. The heavy tail is
	// what makes high fan-out queries slow (paper Fig 5): one straggler
	// stalls the whole query.
	Latency randutil.LatencyModel
	// RequestFailureProb is the probability that a request to a healthy
	// host fails anyway — the paper's "other non-deterministic sources of
	// tail latency" and errors (§I).
	RequestFailureProb float64
	// NetworkHop is the fixed one-way network latency added per call.
	NetworkHop time.Duration
}

// DefaultTransportConfig returns the calibration used by the experiments:
// ~20ms median service time, 1µs-scale network hops, and a small
// per-request failure probability.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{
		Latency:            randutil.DefaultLatencyModel(),
		RequestFailureProb: 1e-4,
		NetworkHop:         200 * time.Microsecond,
	}
}

// SampleOutcome samples one request against the fault/latency model alone,
// with no fleet lookup: with probability RequestFailureProb the request
// fails (ErrRequestFailed), otherwise the returned duration is the
// round-trip latency (two network hops plus a heavy-tailed service time).
// FanOut and FaultTransport both draw through it, so the simulator and the
// wire stay calibrated alike.
func (cfg TransportConfig) SampleOutcome(rnd *randutil.Source) (time.Duration, error) {
	if rnd.Bernoulli(cfg.RequestFailureProb) {
		return 0, ErrRequestFailed
	}
	service := time.Duration(cfg.Latency.Sample(rnd) * float64(time.Second))
	return 2*cfg.NetworkHop + service, nil
}

// Transport samples the outcome of fan-outs over fleet hosts analytically
// (Fig 5): it moves no bytes. Calls that do move bytes draw their faults
// on the wire, through FaultTransport.
type Transport struct {
	fleet *Fleet
	cfg   TransportConfig
}

// NewTransport returns a transport over the fleet.
func NewTransport(fleet *Fleet, cfg TransportConfig) *Transport {
	return &Transport{fleet: fleet, cfg: cfg}
}

// FanOut samples a scatter-gather over all named hosts, as a fully- or
// partially-sharded query does: every host must answer, so the query's
// latency is the maximum of the per-host latencies, and the query fails if
// any host fails (the paper's full-fan-out failure model, §II-B). deadline
// (if > 0) converts stragglers into ErrTimeout. rnd is the caller's
// stream, so concurrent simulations can use independent ones.
func (t *Transport) FanOut(hosts []string, deadline time.Duration, rnd *randutil.Source) (time.Duration, error) {
	var max time.Duration
	for _, host := range hosts {
		h, err := t.fleet.Host(host)
		if err != nil {
			return 0, err
		}
		if !h.Available() {
			return 0, fmt.Errorf("%w: %s (%s)", ErrHostDown, host, h.State())
		}
		lat, err := t.cfg.SampleOutcome(rnd)
		if err != nil {
			return 0, fmt.Errorf("%w: %s", err, host)
		}
		if lat > max {
			max = lat
		}
	}
	if deadline > 0 && max > deadline {
		return max, fmt.Errorf("%w: %v > %v", ErrTimeout, max, deadline)
	}
	return max, nil
}
