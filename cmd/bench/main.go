// Command bench is the repository's benchmark; see internal/benchkit.
//
//	bash cmd/bench/run.sh -workload adhoc_scan -seed 1 -seconds 15 -trace 0
package main

import (
	"os"

	"cubrick/internal/benchkit"
)

func main() {
	os.Exit(benchkit.Main(os.Args[1:], os.Stdout, os.Stderr))
}
