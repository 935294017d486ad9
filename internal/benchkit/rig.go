package benchkit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The production flag set: every workload runs exactly these switches.
// A workload chooses its data, its queries and its table layout
// (partitions, replicas), never a feature.
var (
	workerFlags = []string{
		"-fold", "on",
		"-compact-interval", compactInterval.String(), "-compact-decay", "0.6", "-compact-evict-below", "1",
		"-brick-cache-bytes", "33554432", "-decoded-cache-bytes", "33554432",
		"-rollup-time-dim", "ds", "-rollup-bucket", "8", "-rollup-dims", "region,kind",
		"-max-concurrent-queries", "64",
	}
	coordinatorFlags = []string{
		"-fold", "on",
		"-result-cache-bytes", "33554432",
		"-topk-overfetch", "4",
		"-max-concurrent-queries", "16",
	}
)

const (
	numWorkers      = 2
	compactInterval = 100 * time.Millisecond
)

// FindRoot walks up from the working directory to the module root, the
// directory the binaries are built from.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchkit: no go.mod above the working directory")
		}
		dir = parent
	}
}

// Build compiles cubrick-coordinator and cubrick-worker from the tree at
// root into binDir.
func Build(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/cubrick-coordinator", "./cmd/cubrick-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// proc is one child process of the rig.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  string        // path of its combined stdout+stderr
	done chan struct{} // closed once the child has been reaped
}

// Rig is one coordinator over numWorkers workers, all child processes on
// loopback. Between the coordinator and each worker a Proxy may sit; the
// coordinator is then configured with the proxies' addresses.
type Rig struct {
	coordinator *proc
	workers     []*proc
	proxies     []*Proxy // nil, or one per worker
	http        *http.Client
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a start can still lose the race;
// startProc retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// starter runs functions on one OS thread that lives as long as the
// process. Pdeathsig is delivered when the thread that forked the child
// ends, not the process (go.dev/issue/27505), so every child is forked
// from a thread that never does.
var starter = func() chan<- func() {
	ch := make(chan func())
	go func() {
		runtime.LockOSThread()
		for f := range ch {
			f()
		}
	}()
	return ch
}()

func onStarterThread(f func() error) error {
	done := make(chan error)
	starter <- func() { done <- f() }
	return <-done
}

// startProc starts bin on a fresh port and waits for GET /health to
// answer, retrying on another port when the child dies first (a lost
// bind race). Each child leads its own process group and dies with the
// benchmark.
func startProc(dir, name, bin string, args []string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logPath := filepath.Join(dir, fmt.Sprintf("%s.%d.log", name, attempt))
		logFile, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		err = onStarterThread(cmd.Start)
		logFile.Close()
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		p := &proc{name: name, cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		if lastErr = waitHealthy(p.url, p.done); lastErr == nil {
			return p, nil
		}
		p.kill()
		lastErr = fmt.Errorf("%s on %s: %w\n%s", name, addr, lastErr, tail(logPath, 20))
	}
	return nil, lastErr
}

func waitHealthy(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("exited before becoming healthy")
		default:
		}
		resp, err := http.Get(url + "/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("not healthy after 10s")
}

// kill ends the child's whole process group and waits until it is reaped.
func (p *proc) kill() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// tail returns the last n lines of a file, for failure reports.
func tail(path string, n int) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// StartRig starts the workers, optionally a proxy in front of each, and
// the coordinator over them. dir receives the children's logs.
func StartRig(binDir, dir string, replication int, proxied bool, faults *FaultPlan) (*Rig, error) {
	r := &Rig{http: &http.Client{Timeout: 60 * time.Second}}
	upstream := make([]string, numWorkers)
	for i := 0; i < numWorkers; i++ {
		w, err := startProc(dir, fmt.Sprintf("worker%d", i), filepath.Join(binDir, "cubrick-worker"), workerFlags)
		if err != nil {
			r.Stop()
			return nil, err
		}
		r.workers = append(r.workers, w)
		upstream[i] = w.url
		if proxied {
			px, err := StartProxy(w.url, faults)
			if err != nil {
				r.Stop()
				return nil, err
			}
			r.proxies = append(r.proxies, px)
			upstream[i] = px.URL
		}
	}
	args := append([]string{"-workers", strings.Join(upstream, ","), "-replication", fmt.Sprint(replication)}, coordinatorFlags...)
	c, err := startProc(dir, "coordinator", filepath.Join(binDir, "cubrick-coordinator"), args)
	if err != nil {
		r.Stop()
		return nil, err
	}
	r.coordinator = c
	return r, nil
}

// procs lists the children that were started, workers first.
func (r *Rig) procs() []*proc {
	procs := append([]*proc{}, r.workers...)
	if r.coordinator != nil {
		procs = append(procs, r.coordinator)
	}
	return procs
}

// Stop kills every child, waits for each to end and closes the proxies.
func (r *Rig) Stop() {
	for _, p := range r.procs() {
		p.kill()
	}
	for _, px := range r.proxies {
		px.Close()
	}
}

// Logs returns the tail of every child's log.
func (r *Rig) Logs() string {
	var b strings.Builder
	for _, p := range r.procs() {
		state := "running"
		select {
		case <-p.done:
			state = p.cmd.ProcessState.String()
		default:
		}
		fmt.Fprintf(&b, "--- %s (%s) ---\n%s\n", p.name, state, tail(p.log, 15))
	}
	return b.String()
}

// post sends a JSON body to the coordinator and returns the reply.
func (r *Rig) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.coordinator.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// Metrics fetches and parses one process's GET /metrics.
func (r *Rig) metrics(p *proc) (map[string]float64, error) {
	resp, err := r.http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", p.name, resp.StatusCode)
	}
	return ParseProm(resp.Body)
}

// workerMetrics sums the workers' /metrics.
func (r *Rig) workerMetrics() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, w := range r.workers {
		m, err := r.metrics(w)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
