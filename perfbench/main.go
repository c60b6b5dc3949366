// Command perfbench is the repository's benchmark. In its own process it
// assembles secmemd's stack from the constructors cmd/secmemd uses, with
// the daemon's default configuration, drives it over loopback TCP with
// two closed-loop wire clients, checks every output against a model it
// keeps itself, and prints every metric by name and unit.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench --workload mem-read-hot --seed 1 --seconds 10 --trace 0
//	perfbench compare [--bench BENCHMARK.json] setA.jsonl setB.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 switches the
// timing wrappers and trace IDs on and reports the per-layer split. The
// last line of standard output is the run's result object. Every run also
// appends its full record to <out>/runs.jsonl; traced runs write their
// spans to <out>/spans-<workload>-seed<N>.jsonl.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/server"
)

const (
	// Set-ups per untraced run: all but the last in child processes, the
	// last in-process; setup_s is their median. A durable child exits
	// instead of shutting down (a durable shutdown takes seconds of
	// checkpoint and O(pool) sweep); an in-memory child also times the
	// shutdown path, whose cost is the pool's O(pool) close sweep whatever
	// traffic came before, and shutdown_s is the median of those and the
	// run's own.
	setupSamples = 3
	// Restarts per untraced run, each in its own child process, as a
	// restarted daemon is a fresh process. A durable restart recovers a
	// fresh copy of the crash image and takes seconds; restart_s is the
	// median of restartSamplesDurable. An in-memory restart (nothing
	// survives it) takes milliseconds; on a shared 2-vCPU virtual machine
	// it comes out near 5 ms or near 9 ms in spells of a few hundred
	// milliseconds, so restart_s is the mean of back-to-back restarts over
	// restartTimeMemory, which weighs both.
	restartSamplesDurable = 3
	restartTimeMemory     = 3 * time.Second
	// The fork probe runs whole rounds of forkProbeRound fork → destroy
	// cycles for forkProbeTime, long enough that one scheduling hiccup
	// does not set its median.
	forkProbeRound = 100
	forkProbeTime  = 3 * time.Second
	forkProbePages = 8
	childTimeout   = 150 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runRecord is everything one run reports; runs.jsonl holds one per line.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      int                `json:"trace"`
	Machine    machine            `json:"machine"`
	Ops        map[string]opCount `json:"ops"`
	Checks     []string           `json:"checks_passed"`
	Violations []string           `json:"violations,omitempty"`
	Failures   []string           `json:"failed_requests,omitempty"`
	Layers     []layerRow         `json:"layers,omitempty"`
	Result     result             `json:"result"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "child":
			os.Exit(childMain(os.Args[2:]))
		}
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for run records and spans")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	o.trace = *trace == 1
	rec, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := appendRecord(o.out, rec); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// setUp builds the stack, prefills the working set and dials the clients:
// everything setup_s measures.
func setUp(w workload, seed int64, dataDir string, tr *tracer) (*stack, []*server.Client, error) {
	sc := w.stackConfig()
	sc.dataDir = dataDir
	st, err := openStack(sc, tr)
	if err != nil {
		return nil, nil, err
	}
	if err := w.prefill(st, seed); err != nil {
		return nil, nil, fmt.Errorf("prefill: %w", err)
	}
	cls, err := st.dial(conns)
	if err != nil {
		return nil, nil, err
	}
	return st, cls, nil
}

func run(o options) (*runRecord, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o700); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	durable := w.isDurable()
	rec := &runRecord{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Machine: machineFacts(), Ops: map[string]opCount{}}
	if o.trace {
		rec.Trace = 1
	}
	pass := func(name string) { rec.Checks = append(rec.Checks, name) }
	fail := func(err error) { rec.Violations = append(rec.Violations, err.Error()) }

	var setups, shutdowns []float64
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	dataDir := ""
	if durable {
		dataDir = filepath.Join(work, "data")
	}
	t0 := time.Now()
	st, cls, err := setUp(w, o.seed, dataDir, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = &conn{idx: i, cl: cls[i], rng: rand.New(rand.NewSource(o.seed*1_000_003 + int64(i) + 1))}
		w.bind(cs[i])
	}
	total := time.Duration(o.seconds) * time.Second
	var base, traced *phaseResult
	if o.trace {
		base = runPhase(w, st, cs, total/2, false)
		traced = runPhase(w, st, cs, total/2, true)
	} else {
		base = runPhase(w, st, cs, total, false)
	}
	for _, c := range cs {
		rec.Violations = append(rec.Violations, c.errs...)
		rec.Failures = append(rec.Failures, c.failures...)
	}
	if n := violations(cs); n == 0 {
		pass("every read matched the model")
	}
	res := result{Metrics: map[string]metric{}}
	if !o.trace {
		timedMetrics(res.Metrics, cs, base)
	}
	isTenant := w.hasForks()
	// The phase's samples are released and the heap collected (untimed)
	// so the probe and the timed shutdown start from the same state in
	// every run.
	var forks []float64
	for _, c := range cs {
		forks = append(forks, c.lat[opFork]...)
		c.lat, c.win = [numOps][]float64{}, [numOps][]int32{}
	}

	if err := w.check(st, cs); err != nil {
		fail(fmt.Errorf("post-run check: %w", err))
	} else if !durable {
		pass("post-run read-back matched the model")
	}
	imageDir := filepath.Join(work, "image")
	shadowFile := filepath.Join(work, "shadow.bin")
	if durable {
		// Crash image: every acked write synced (the flush the batch
		// policy runs every interval) and no final checkpoint cut.
		if err := st.store.Flush(); err != nil {
			return nil, fmt.Errorf("crash image flush: %w", err)
		}
		if err := copyDir(dataDir, imageDir); err != nil {
			return nil, fmt.Errorf("crash image: %w", err)
		}
		if err := writeShadow(shadowFile, w.(*poolWorkload).allShadow()); err != nil {
			return nil, err
		}
	}
	if n, err := scanPlaintext(st, w.written()); err != nil {
		fail(err)
	} else {
		pass(fmt.Sprintf("no written value in plaintext at rest (%d blocks scanned)", n))
	}
	var verifySweep []float64
	if o.trace && !durable {
		t := time.Now()
		if err := st.pool.Verify(context.Background()); err != nil {
			fail(fmt.Errorf("verify sweep: %w", err))
		}
		verifySweep = append(verifySweep, time.Since(t).Seconds())
	}
	if !durable {
		if err := w.tamper(st, cs[0]); err != nil {
			fail(fmt.Errorf("tamper check: %w", err))
		} else {
			pass("bit flipped at rest refused as tampered")
		}
	}

	// The probe runs last: tenant frames share the pool's pages with raw
	// wire reads and writes, so a tenant clobbers raw data it lands on.
	if !isTenant {
		runtime.GC()
		if tr != nil {
			tr.on.Store(true)
		}
		if err := forkProbe(cs[0]); err != nil {
			return nil, fmt.Errorf("fork probe: %w", err)
		}
		if tr != nil {
			tr.on.Store(false)
		}
		forks = cs[0].lat[opFork]
	}
	for _, c := range cls {
		c.Close()
	}
	w = nil // the model is not needed past this point
	runtime.GC()
	t1 := time.Now()
	checkpoint, err := st.shutdown()
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	shutdowns = append(shutdowns, time.Since(t1).Seconds())

	// The extra set-up samples run after the timed phase, so the data
	// directories they write and sync are not still being flushed by the
	// device while the timed phase runs.
	if !o.trace {
		for k := 0; k < setupSamples-1; k++ {
			var cr childResult
			dir := filepath.Join(work, fmt.Sprintf("setup-%d", k))
			if err := runChild(&cr, "--mode", "setup", "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--dir", dir); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			setups = append(setups, cr.SetupS)
			if !durable {
				shutdowns = append(shutdowns, cr.ShutdownS)
			}
		}
	}
	var restarts, recovers, walRecs []float64
	children := restartSamplesDurable
	restartsUntil := time.Time{}
	if !durable {
		children = math.MaxInt
		restartsUntil = time.Now().Add(restartTimeMemory)
	}
	if o.trace {
		// The traced run needs one durable restart for the recovery split.
		children = 0
		if durable {
			children = 1
		}
	}
	for k := 0; k < children && (restartsUntil.IsZero() || time.Now().Before(restartsUntil)); k++ {
		args := []string{"--mode", "restart", "--workload", o.workload}
		dir := filepath.Join(work, fmt.Sprintf("restart-%d", k))
		if durable {
			if err := copyDir(imageDir, dir); err != nil {
				return nil, err
			}
			args = append(args, "--dir", dir)
			if k == children-1 {
				args = append(args, "--shadow", shadowFile)
			}
		}
		if o.trace {
			args = append(args, "--trace", "1")
		}
		var cr childResult
		if err := runChild(&cr, args...); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		restarts = append(restarts, cr.RestartS)
		recovers = append(recovers, cr.RecoverS)
		walRecs = append(walRecs, float64(cr.WALRecords))
		if cr.VerifySweepS > 0 {
			verifySweep = append(verifySweep, cr.VerifySweepS)
		}
		if cr.Lost != "" {
			fail(errors.New(cr.Lost))
		}
		if cr.Checked > 0 {
			pass(fmt.Sprintf("every acked write read back after the crash-image restart (%d addresses)", cr.Checked))
		}
		if cr.Tamper != "" {
			if cr.Tamper == "refused" {
				pass("bit flipped at rest refused as tampered")
			} else {
				fail(errors.New(cr.Tamper))
			}
		}
	}

	for k := opKind(0); k < numOps; k++ {
		var oc opCount
		for _, c := range cs {
			oc.Attempted += c.attempted[k]
			oc.Failed += c.failed[k]
		}
		if oc.Attempted > 0 {
			rec.Ops[opNames[k]] = oc
		}
		res.Attempted += oc.Attempted
		res.Failed += oc.Failed
	}
	if o.trace {
		lr := layerInputs{
			tenant: isTenant, st: st, cs: cs, base: base, traced: traced,
			checkpoint: checkpoint, verifySweep: verifySweep, recovers: recovers, walRecords: walRecs,
		}
		rec.Layers, res.Metrics = perLayer(lr)
		printTable(os.Stdout, o.workload, rec.Layers)
		if err := writeSpans(o.out, o.workload, o.seed, cs, tr); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["fork_p50_us"] = metric{median(forks), "us"}
		restart := median(restarts)
		if !durable {
			restart = mean(restarts)
		}
		res.Metrics["restart_s"] = metric{restart, "s"}
		res.Metrics["shutdown_s"] = metric{median(shutdowns), "s"}
		res.Metrics["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
		fmt.Printf("samples: %d forks; setups %.3f s; shutdowns %.3f s; %d restarts, %.4f s\n", len(forks), setups, shutdowns, len(restarts), restarts)
	}
	res.Correct = len(rec.Violations) == 0
	rec.Result = res
	acct, _ := json.Marshal(struct {
		Machine machine            `json:"machine"`
		Ops     map[string]opCount `json:"ops"`
		Checks  []string           `json:"checks_passed"`
		Viol    []string           `json:"violations,omitempty"`
		Failed  []string           `json:"failed_requests,omitempty"`
	}{rec.Machine, rec.Ops, rec.Checks, rec.Violations, rec.Failures})
	fmt.Println(string(acct))
	return rec, nil
}

func (w *poolWorkload) isDurable() bool   { return w.durable }
func (w *tenantWorkload) isDurable() bool { return false }

func violations(cs []*conn) int {
	n := 0
	for _, c := range cs {
		n += c.violations
	}
	return n
}

// phaseResult is one timed phase: what it completed, in how long, and
// the layer counters around it.
type phaseResult struct {
	elapsed   time.Duration
	completed int
	meanUS    float64   // mean round trip over every completed request
	windows   int       // full windows in the phase
	cpuPerOp  []float64 // process CPU µs per completed request, per window
	before    layerSnap
	after     layerSnap
}

// runPhase runs whole rounds of the mix on every connection until the
// phase's time is up. A traced phase switches the wrappers on, stamps
// trace IDs and drains the obs trace rings.
func runPhase(w workload, st *stack, cs []*conn, d time.Duration, traced bool) *phaseResult {
	ph := &phaseResult{}
	for _, c := range cs {
		for k := range c.lat {
			c.lat[k] = c.lat[k][:0]
			c.win[k] = c.win[k][:0]
		}
		if traced {
			c.nextTrace = c.cl.EnableTrace(uint64(c.idx+1) << 40)
		}
	}
	if traced {
		st.tr.startCollector(st.obs)
		st.tr.on.Store(true)
	}
	ph.before = snapLayers(st)
	ph.windows = int(d / window)
	cpu0 := cpuTime()
	start := time.Now()
	for _, c := range cs {
		c.start = start
	}
	deadline := start.Add(d)
	// CPU time at each window boundary, for the per-window CPU cost.
	cpuAt := make([]time.Duration, 0, ph.windows+1)
	cpuAt = append(cpuAt, cpu0)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := 1; i <= ph.windows; i++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(i) * window))):
				cpuAt = append(cpuAt, cpuTime())
			case <-stopSampler:
				return
			}
		}
	}()
	done := make(chan struct{})
	for _, c := range cs {
		go func(c *conn) {
			defer func() { done <- struct{}{} }()
			for {
				for i := 0; i < roundSteps; i++ {
					w.step(c)
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	for range cs {
		<-done
	}
	ph.elapsed = time.Since(start)
	close(stopSampler)
	<-samplerDone
	for i, xs := range windows(cs, allOps(), len(cpuAt)-1) {
		if len(xs) > 0 {
			ph.cpuPerOp = append(ph.cpuPerOp, (cpuAt[i+1]-cpuAt[i]).Seconds()*1e6/float64(len(xs)))
		}
	}
	ph.after = snapLayers(st)
	if traced {
		st.tr.on.Store(false)
		st.tr.stopCollector()
		for _, c := range cs {
			c.cl.DisableTrace()
			c.nextTrace = 0
		}
	}
	var sum float64
	for _, c := range cs {
		for k := range c.lat {
			ph.completed += len(c.lat[k])
			for _, us := range c.lat[k] {
				sum += us
			}
		}
	}
	if ph.completed > 0 {
		ph.meanUS = sum / float64(ph.completed)
	}
	return ph
}

// forkProbe measures fork latency on workloads whose mix has no forks:
// one small tenant is forked and the child destroyed, in whole rounds of
// forkProbeRound cycles, for forkProbeTime.
func forkProbe(c *conn) error {
	var id uint32
	if err := c.do(opCreate, func() (err error) {
		id, err = c.cl.TenantCreate(forkProbePages)
		return err
	}); err != nil {
		return err
	}
	for p := 0; p < forkProbePages; p++ {
		v := c.randValue()
		if err := c.do(opProbeWrite, func() error { return c.cl.TenantWrite(id, uint64(p)*layout.PageSize, v[:]) }); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(forkProbeTime); time.Now().Before(deadline); {
		for i := 0; i < forkProbeRound; i++ {
			var child uint32
			if err := c.do(opFork, func() (err error) {
				child, err = c.cl.TenantFork(id)
				return err
			}); err != nil {
				return err
			}
			if err := c.do(opDestroy, func() error { return c.cl.TenantDestroy(child) }); err != nil {
				return err
			}
		}
	}
	return c.do(opDestroy, func() error { return c.cl.TenantDestroy(id) })
}

// windows groups the phase's latency samples of the given kinds by
// window, for the first n windows.
func windows(cs []*conn, ks []opKind, n int) [][]float64 {
	out := make([][]float64, n)
	for _, c := range cs {
		for _, k := range ks {
			for i, w := range c.win[k] {
				if int(w) < n {
					out[w] = append(out[w], c.lat[k][i])
				}
			}
		}
	}
	return out
}

func allOps() []opKind {
	ks := make([]opKind, numOps)
	for k := range ks {
		ks[k] = opKind(k)
	}
	return ks
}

// timedMetrics computes the timed phase's throughput, latency and CPU
// metrics: each per 1 s window, reported as the median over the windows.
func timedMetrics(m map[string]metric, cs []*conn, ph *phaseResult) {
	perWin := func(ks []opKind, f func([]float64) float64) float64 {
		var vs []float64
		for _, xs := range windows(cs, ks, ph.windows) {
			vs = append(vs, f(xs))
		}
		return median(vs)
	}
	rate := func(xs []float64) float64 { return float64(len(xs)) / window.Seconds() }
	p50 := func(xs []float64) float64 { return percentile(xs, 50) }
	p90 := func(xs []float64) float64 { return percentile(xs, 90) }
	m["ops_per_s"] = metric{perWin(allOps(), rate), "1/s"}
	m["read_p50_us"] = metric{perWin([]opKind{opRead}, p50), "us"}
	m["read_p90_us"] = metric{perWin([]opKind{opRead}, p90), "us"}
	m["write_p50_us"] = metric{perWin([]opKind{opWrite}, p50), "us"}
	m["cpu_us_per_op"] = metric{median(ph.cpuPerOp), "us"}
	// The 99th percentile is printed for reference only: it is not steady
	// from run to run on a shared 2-vCPU machine (see README).
	var series []string
	for _, xs := range windows(cs, allOps(), ph.windows) {
		series = append(series, fmt.Sprint(len(xs)))
	}
	fmt.Printf("timed phase: requests per window [%s]; cpu us/op per window %.1f; read p99 %.1f us\n",
		strings.Join(series, " "), ph.cpuPerOp, perWin([]opKind{opRead}, func(xs []float64) float64 { return percentile(xs, 99) }))
}

// percentile interpolates linearly between closest ranks; it is 0 only
// for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's high-water resident set (getrusage
// ru_maxrss, in KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func machineFacts() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     obs.ReadBuildInfo().Revision,
	}
}

func appendRecord(dir string, rec *runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeShadow stores the model of acked writes for the restart child:
// 8-byte address then the 64-byte value, per record.
func writeShadow(path string, sh map[uint64]value) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, a := range sortedAddrs(sh) {
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], a)
		v := sh[a]
		bw.Write(hdr[:])
		bw.Write(v[:])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readShadow(path string) (map[uint64]value, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	const rec = 8 + blockBytes
	if len(b)%rec != 0 {
		return nil, fmt.Errorf("%s: truncated", path)
	}
	sh := make(map[uint64]value, len(b)/rec)
	for off := 0; off < len(b); off += rec {
		sh[binary.LittleEndian.Uint64(b[off:])] = value(b[off+8 : off+rec])
	}
	return sh, nil
}

// childResult is what a child process reports on its last output line.
type childResult struct {
	SetupS       float64 `json:"setup_s,omitempty"`
	ShutdownS    float64 `json:"shutdown_s,omitempty"`
	RestartS     float64 `json:"restart_s,omitempty"`
	RecoverS     float64 `json:"recover_s,omitempty"`
	WALRecords   uint64  `json:"wal_records,omitempty"`
	VerifySweepS float64 `json:"verify_sweep_s,omitempty"`
	Checked      int     `json:"checked,omitempty"`
	Tamper       string  `json:"tamper,omitempty"`
	Lost         string  `json:"lost,omitempty"`
}

// runChild runs this binary in child mode, waits for it and decodes its
// result.
func runChild(out *childResult, args ...string) error {
	// run.sh starts the binary by its absolute path.
	exe := os.Args[0]
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"child"}, args...)...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	return nil
}

// childMain measures one set-up or one restart and exits without tearing
// the stack down, as a crashed or killed daemon would.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ExitOnError)
	mode := fs.String("mode", "", "setup or restart")
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "seed")
	dir := fs.String("dir", "", "data directory (durable workloads)")
	shadow := fs.String("shadow", "", "model of acked writes to read back after the restart")
	trace := fs.Int("trace", 0, "1 also times one verify sweep")
	fs.Parse(args)
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	var cr childResult
	if err := childRun(&cr, w, *mode, *seed, *dir, *shadow, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s %s: %v\n", *mode, *name, err)
		return 1
	}
	b, _ := json.Marshal(cr)
	fmt.Println(string(b))
	return 0
}

func childRun(cr *childResult, w workload, mode string, seed int64, dir, shadowPath string, traced bool) error {
	if !w.isDurable() {
		dir = ""
	}
	switch mode {
	case "setup":
		t0 := time.Now()
		st, cls, err := setUp(w, seed, dir, nil)
		if err != nil {
			return err
		}
		cr.SetupS = time.Since(t0).Seconds()
		if w.isDurable() {
			return nil
		}
		for _, c := range cls {
			c.Close()
		}
		runtime.GC()
		t1 := time.Now()
		if _, err := st.shutdown(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		cr.ShutdownS = time.Since(t1).Seconds()
		return nil
	case "restart":
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	t0 := time.Now()
	sc := w.stackConfig()
	sc.dataDir = dir
	st, err := openStack(sc, nil)
	if err != nil {
		return err
	}
	cls, err := st.dial(1)
	if err != nil {
		return err
	}
	if _, err := cls[0].Read(0, blockBytes, core.Meta{}); err != nil {
		return fmt.Errorf("first read after restart: %w", err)
	}
	cr.RestartS = time.Since(t0).Seconds()
	cr.RecoverS = st.recovery.Elapsed.Seconds()
	cr.WALRecords = st.recovery.WALRecords
	if traced {
		t := time.Now()
		if err := st.pool.Verify(context.Background()); err != nil {
			return fmt.Errorf("verify sweep: %w", err)
		}
		cr.VerifySweepS = time.Since(t).Seconds()
	}
	if shadowPath == "" {
		return nil
	}
	sh, err := readShadow(shadowPath)
	if err != nil {
		return err
	}
	if err := checkShadow(st, sh); err != nil {
		cr.Lost = "after the crash-image restart: " + err.Error()
		return nil
	}
	cr.Checked = len(sh)
	cr.Tamper = "refused"
	if err := tamperPool(st, &conn{cl: cls[0]}, sh, false); err != nil {
		cr.Tamper = err.Error()
	}
	return nil
}
