// Command e2ebench is the end-to-end benchmark of the Aurora
// reproduction. It runs the real code in-process through its public
// entry points — a live namenode, datanodes and clients over loopback
// TCP, or the paper-scale simulator — on one of three seeded workloads,
// checks that every output is correct, and prints a human-readable
// report followed by one JSON result line. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// args are the command-line arguments.
type args struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
}

// How many times a run sets each workload up; setup_s is the median.
// Cheaper set-ups are repeated more: a set-up lasts about 1.5 s on
// read-hot, 7 s on period-scale and 0.3 s on sim-paper, where single
// set-ups of one run varied by ±25% with host load.
const (
	readHotSetups     = 5
	periodScaleSetups = 3
	simPaperSetups    = 21
)

// runDeadline bounds a whole run, set-ups and checks included.
const runDeadline = 170 * time.Second

// workloads maps names to runners.
func runWorkload(a args, wd *watchdog) (*report, error) {
	switch a.workload {
	case "read-hot":
		return runLive(a, newReadHot, readHotSetups, wd)
	case "period-scale":
		return runLive(a, newPeriodScale, periodScaleSetups, wd)
	case "sim-paper":
		return runSim(a, wd)
	}
	return nil, fmt.Errorf("unknown workload %q (want read-hot, period-scale or sim-paper)", a.workload)
}

// watchdog bounds the whole run: if it is still going at its deadline,
// it prints the phase it was in and every goroutine's stack, and exits
// nonzero without a result.
type watchdog struct {
	mu    sync.Mutex
	where string // guarded by mu
	timer *time.Timer
	begin time.Time
	// Progress, printed if the run hangs.
	ops, periods atomic.Int64
}

func newWatchdog(limit time.Duration) *watchdog {
	wd := &watchdog{where: "start", begin: time.Now()}
	wd.timer = time.AfterFunc(limit, func() {
		wd.mu.Lock()
		where := wd.where
		wd.mu.Unlock()
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "e2ebench: watchdog: run exceeded %v during %s after %d operations and %d periods\n%s\n",
			limit, where, wd.ops.Load(), wd.periods.Load(), buf[:n])
		os.Exit(3)
	})
	return wd
}

// phase names what the run is doing now; it is logged to stderr.
func (wd *watchdog) phase(where string) {
	fmt.Fprintf(os.Stderr, "e2ebench: %6.1fs %s\n", time.Since(wd.begin).Seconds(), where)
	wd.mu.Lock()
	wd.where = where
	wd.mu.Unlock()
}

func (wd *watchdog) stop() { wd.timer.Stop() }

func main() {
	var a args
	var trace int
	flag.StringVar(&a.workload, "workload", "", "read-hot, period-scale or sim-paper")
	flag.Uint64Var(&a.seed, "seed", 1, "seed all workload inputs are generated from")
	flag.IntVar(&a.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&a.outDir, "out", ".bench_build/e2ebench", "directory for span dumps and rollups")
	flag.Parse()
	a.trace = trace == 1
	if a.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	wd := newWatchdog(runDeadline)
	rep, err := runWorkload(a, wd)
	wd.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print()
	if rep.failed > 0 || len(rep.failures) > 0 {
		os.Exit(1)
	}
}
