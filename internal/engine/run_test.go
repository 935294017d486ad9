package engine

import (
	"context"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// Oracle is the reference package internal/oracle. It imports engine, so
// this package's tests reach it through these functions, which
// oracle_test.go (package engine_test) installs before any test runs.
var Oracle struct {
	Run      func(q *Query, stores ...*brick.Store) (*Result, error)
	Equal    func(want, got *Result) error
	Answer   func(r *Result) *Result
	NewTrial func(tb testing.TB, rnd *randutil.Source, dyadic bool) (*brick.Store, *Query)
}

// reference returns the oracle's result for q over the stores.
func reference(tb testing.TB, q *Query, stores ...*brick.Store) *Result {
	tb.Helper()
	want, err := Oracle.Run(q, stores...)
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// runUnshared runs q over s on a private pass of a throwaway scheduler with
// the given worker count (0 = GOMAXPROCS).
func runUnshared(s *brick.Store, q *Query, parallelism int, o Opts) (*Partial, ExecInfo, error) {
	o.Unshared = true
	return NewScheduler(s, SchedulerConfig{Parallelism: parallelism}).Run(context.Background(), q, o)
}

// runQuery runs q over s on a private pass, for tests that need a partial.
func runQuery(s *brick.Store, q *Query) (*Partial, error) {
	p, _, err := runUnshared(s, q, 0, Opts{})
	return p, err
}
