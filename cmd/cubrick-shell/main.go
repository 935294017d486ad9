// Command cubrick-shell is an interactive CQL shell over an in-process
// demo deployment: three regions, a demo table pre-loaded with synthetic
// data, and the full proxy/SM/discovery stack underneath.
//
//	$ go run ./cmd/cubrick-shell
//	cubrick> SELECT region, SUM(value) FROM demo GROUP BY region LIMIT 5
//
// Meta statements: SHOW TABLES, DESCRIBE <table>, plus shell commands
// \stats, \advance <duration>, \quit.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	cubrick "cubrick"
	"cubrick/internal/cql"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

func main() {
	db, err := openDemo()
	if err != nil {
		fmt.Fprintln(os.Stderr, "failed to open demo deployment:", err)
		os.Exit(1)
	}
	fmt.Println("Cubrick demo shell — table `demo` is pre-loaded; try:")
	fmt.Println("  SELECT region, SUM(value) AS total FROM demo GROUP BY region ORDER BY total DESC LIMIT 5")
	fmt.Println("  SHOW TABLES   DESCRIBE demo   \\stats   \\advance 1m   \\quit")
	repl(db, os.Stdin, os.Stdout, true)
}

// repl reads statements from in and writes results to out; prompt controls
// the interactive "cubrick> " prefix.
func repl(db *cubrick.DB, in io.Reader, out io.Writer, prompt bool) {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(out, "cubrick> ")
		}
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if shellCommand(db, line, out) {
				return
			}
			continue
		}
		runStatement(db, line, out)
	}
}

func openDemo() (*cubrick.DB, error) {
	cfg := cubrick.Defaults()
	db, err := cubrick.Open(cfg)
	if err != nil {
		return nil, err
	}
	schema := workload.StandardSchema()
	if err := db.CreateTable("demo", schema); err != nil {
		return nil, err
	}
	gen := workload.NewRowGenerator(schema, randutil.New(42))
	dims := make([][]uint32, 5000)
	metrics := make([][]float64, 5000)
	for i := range dims {
		dims[i], metrics[i] = gen.Next()
	}
	return db, db.Load("demo", dims, metrics)
}

// shellCommand handles backslash commands; returns true to quit.
func shellCommand(db *cubrick.DB, line string, out io.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\stats":
		p := db.Proxy()
		fmt.Fprintf(out, "queries=%d retries=%d failures=%d rejections=%d\n",
			p.Queries.Value(), p.Retries.Value(), p.Failures.Value(), p.Rejections.Value())
		s := p.Latency.Snapshot()
		fmt.Fprintf(out, "latency p50=%.1fms p99=%.1fms max=%.1fms over %d queries\n",
			s.P50*1000, s.P99*1000, s.Max*1000, s.Count)
	case "\\advance":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\advance <duration>, e.g. \\advance 1m")
			return false
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Fprintln(out, "bad duration:", err)
			return false
		}
		db.Advance(d)
		fmt.Fprintln(out, "advanced simulated time by", d)
	default:
		fmt.Fprintln(out, "unknown command; available: \\stats \\advance \\quit")
	}
	return false
}

func runStatement(db *cubrick.DB, line string, out io.Writer) {
	st, err := cql.Parse(line)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	switch st := st.(type) {
	case *cql.ShowTablesStmt:
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "table\tpartitions\tversion\treplicated")
		for _, ti := range db.Tables() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%v\n", ti.Name, ti.Partitions, ti.Version, ti.Replicated)
		}
		w.Flush()
	case *cql.DescribeStmt:
		schema, err := db.Describe(st.Table)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "column\tkind\tdomain\tbuckets")
		for _, d := range schema.Dimensions {
			fmt.Fprintf(w, "%s\tdimension\t[0,%d)\t%d\n", d.Name, d.Max, d.Buckets)
		}
		for _, m := range schema.Metrics {
			fmt.Fprintf(w, "%s\tmetric\tfloat64\t-\n", m.Name)
		}
		w.Flush()
	case *cql.SelectStmt:
		start := time.Now()
		res, err := db.Query(context.Background(), line)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		printResult(res, out)
		fmt.Fprintf(out, "(%d rows; scanned %d; fan-out %d; region %s; simulated latency %s; wall %s)\n",
			len(res.Rows), res.RowsScanned, res.Fanout, res.Region,
			res.Latency.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	}
}

func printResult(res *cubrick.Result, out io.Writer) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = trimFloat(v)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
