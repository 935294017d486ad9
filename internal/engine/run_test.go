package engine

import (
	"context"

	"cubrick/internal/brick"
)

// runUnshared runs q over s on a private pass of a throwaway scheduler with
// the given worker count (0 = GOMAXPROCS) and no brick cache.
func runUnshared(s *brick.Store, q *Query, parallelism int, o Opts) (*Partial, ExecInfo, error) {
	o.Unshared = true
	return NewScheduler(s, SchedulerConfig{Parallelism: parallelism}).Run(context.Background(), q, o)
}
