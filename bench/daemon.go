package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what one benchmark process shares across workloads: where the
// repository is, the binaries built from it, and how many CPUs the
// harness may use.
type env struct {
	root     string // repository root (parent of bench/)
	rmbd     string
	rmbbench string
	buildSec float64
	nproc    int
	// The traced run's probe results, shared by the workloads of one
	// process (see result.probe).
	probeServed []*result
	probeSeed   uint64
	probeChild  *result
}

// findRoot walks up from the working directory to the checkout that
// holds cmd/rmbd. `go run -C bench` and `go test` both start in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rmbd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no cmd/rmbd above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// newEnv builds the two programs under test from source into
// .bench_build/ inside the checkout. The build is timed on its own
// (bench.build_s) and is not part of setup_s.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, nproc: min(runtime.NumCPU(), 2)}
	runtime.GOMAXPROCS(e.nproc)
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/rmbd", "./cmd/rmbbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: go build: %v\n%s", err, out)
	}
	e.buildSec = time.Since(start).Seconds()
	e.rmbd = filepath.Join(bin, "rmbd")
	e.rmbbench = filepath.Join(bin, "rmbbench")
	return e, nil
}

// daemonFlags is the product as shipped, sized for one simulation
// worker so that queueing is visible at two clients.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "16", "-log-level", "warn"}

type daemon struct {
	cmd     *exec.Cmd
	url     string
	startMs float64
	log     *listenWatcher
	exited  chan struct{} // closed once the process has been reaped
}

var listenRE = regexp.MustCompile(`listening on (\S+)\s`)

// listenWatcher is the daemon's stderr: it keeps what the daemon wrote
// (warnings matter when a run fails) and reports the bound address from
// the "listening on" line rmbd prints once its socket is open.
type listenWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *listenWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon launches rmbd on an ephemeral port and waits until it
// reports the address it bound.
func startDaemon(e *env, extra []string) (*daemon, error) {
	args := append(append([]string(nil), daemonFlags...), extra...)
	cmd := exec.Command(e.rmbd, args...)
	cmd.Dir = e.root
	w := &listenWatcher{addr: make(chan string, 1)}
	cmd.Stderr = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: w, exited: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	select {
	case a := <-w.addr:
		d.url = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("bench: rmbd exited before listening:\n%s", w)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("bench: rmbd did not start listening within 10s")
	}
	d.startMs = ms(time.Since(start))
	return d, nil
}

// stop sends SIGTERM, waits for the drain to finish and falls back to
// SIGKILL, so no daemon outlives the benchmark.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// procUsage is what /proc says about a live process. Nothing here needs
// a flag or an endpoint of the daemon.
type procUsage struct {
	cpuSec    float64 // utime + stime
	rssKB     float64 // VmRSS
	rssPeakKB float64 // VmHWM
}

const clkTck = 100.0 // USER_HZ, which Linux fixes at 100 for user space

func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.cpuSec = (ut + st) / clkTck
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		fs := strings.Fields(v)
		if len(fs) == 0 {
			continue
		}
		x, _ := strconv.ParseFloat(fs[0], 64)
		switch k {
		case "VmRSS":
			u.rssKB = x
		case "VmHWM":
			u.rssPeakKB = x
		}
	}
	return u, nil
}

func (d *daemon) usage() (procUsage, error) { return readProc(d.cmd.Process.Pid) }
