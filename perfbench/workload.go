package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/mem"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
)

// opKind names the wire requests the workloads issue; attempted and
// failed counts and latencies are kept per kind.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opFork
	opChildWrite
	opChildRead
	opParentRead
	opDestroy
	opCreate
	opProbeWrite
	numOps
)

var opNames = [numOps]string{"read", "write", "fork", "child_write", "child_read", "parent_read", "destroy", "create", "probe_write"}

const (
	conns       = 2   // closed-loop clients, one per core of the reference machine
	roundSteps  = 100 // mix draws per round; a run attempts whole rounds
	blocksPage  = layout.PageSize / layout.BlockSize
	blockBytes  = layout.BlockSize
	prefillPar  = 32 // goroutines issuing the prefill
	maxViolated = 5  // violations and failures kept verbatim per connection
	// window is the interval the timed phase is cut into: throughput and
	// latency percentiles are taken per window and reported as the median
	// over windows, so a transient stall of the shared machine moves one
	// window, not the run's figure.
	window = time.Second
)

type value = [blockBytes]byte

// conn is one closed-loop client and everything it measured.
type conn struct {
	idx       int
	cl        *server.Client
	rng       *rand.Rand
	nextTrace uint64 // trace ID of the next request; 0 when untraced

	attempted, failed [numOps]int
	lat               [numOps][]float64 // µs of successful requests, current phase
	win               [numOps][]int32   // window of each lat sample (see window)
	start             time.Time         // current phase's start
	spans             []clientSpan
	violations        int
	errs              []string // correctness violations
	failures          []string // failed requests, counted apart from violations
}

type clientSpan struct {
	Trace uint64 `json:"trace_id"`
	Op    string `json:"op"`
	Start int64  `json:"start_unix_ns"`
	Dur   int64  `json:"dur_ns"`
}

// do issues one request through f (which must send exactly one) and
// accounts for it.
func (c *conn) do(k opKind, f func() error) error {
	trace := c.nextTrace
	if trace != 0 {
		c.nextTrace++
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	c.attempted[k]++
	if err != nil {
		c.failed[k]++
		if len(c.failures) < maxViolated {
			c.failures = append(c.failures, fmt.Sprintf("conn %d: %s: %v", c.idx, opNames[k], err))
		}
		return err
	}
	c.lat[k] = append(c.lat[k], float64(d.Nanoseconds())/1e3)
	c.win[k] = append(c.win[k], int32(t0.Sub(c.start)/window))
	if trace != 0 {
		c.spans = append(c.spans, clientSpan{Trace: trace, Op: opNames[k], Start: t0.UnixNano(), Dur: d.Nanoseconds()})
	}
	return nil
}

// violate records an output that contradicts the benchmark's model.
func (c *conn) violate(format string, args ...any) {
	c.violations++
	if len(c.errs) < maxViolated {
		c.errs = append(c.errs, fmt.Sprintf("conn %d: ", c.idx)+fmt.Sprintf(format, args...))
	}
}

func (c *conn) randValue() value {
	var v value
	c.rng.Read(v[:])
	return v
}

// workload is one traffic mix over the stack.
type workload interface {
	stackConfig() stackConfig
	// prefill writes a deterministic value into every page of the working
	// set through the stack's layers directly, so lazy page set-up lands
	// in set-up rather than in the timed phase.
	prefill(st *stack, seed int64) error
	// bind attaches the per-connection model after the prefill.
	bind(c *conn)
	// step issues one draw of the mix on c and checks what it reads.
	step(c *conn)
	// check verifies the outputs once the timed phase is over.
	check(st *stack, cs []*conn) error
	// tamper flips one bit at rest in written data and requires the next
	// read of it to be refused as tampered.
	tamper(st *stack, c *conn) error
	// written lists every 64 B value the workload wrote.
	written() []value
	// hasForks reports whether the mix itself forks tenants.
	hasForks() bool
	// isDurable reports whether the stack runs over a data directory.
	isDurable() bool
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "mem-read-hot":
		return &poolWorkload{memBytes: 16 << 20, readShare: 0.95, zipfS: 1.1}, nil
	case "durable-write-cold":
		// -fsync batch, not the daemon's default always: under always the
		// shared virtual disk's flush latency, which varies about 2x from
		// run to run, set throughput and write latency (IQR 25% over ten
		// seeds). Batch keeps the WAL, group commit and the syncs, off the
		// acknowledgement path.
		return &poolWorkload{memBytes: 64 << 20, readShare: 0.20, durable: true, fsync: persist.FsyncBatch}, nil
	case "tenant-fork-swap":
		return &tenantWorkload{tenants: 8, pagesPer: 24, budget: 48, readShare: 0.60, writeShare: 0.30}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mem-read-hot, durable-write-cold or tenant-fork-swap)", name)
}

var workloadNames = []string{"mem-read-hot", "durable-write-cold", "tenant-fork-swap"}

// poolWorkload drives raw 64 B pool reads and writes. Each connection
// owns half of the pages (a seeded permutation), so the last acked write
// to an address is well defined.
type poolWorkload struct {
	memBytes  uint64
	readShare float64
	zipfS     float64 // > 1: Zipf-skewed page choice; 0: uniform
	durable   bool
	fsync     persist.Policy

	owned  [conns][]uint64
	shadow [conns]map[uint64]value
	vals   [conns][]value
	zipf   [conns]*rand.Zipf
}

func (w *poolWorkload) stackConfig() stackConfig {
	return stackConfig{memBytes: w.memBytes, fsync: w.fsync}
}

func (w *poolWorkload) hasForks() bool { return false }

func (w *poolWorkload) prefill(st *stack, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pages := int(w.memBytes / layout.PageSize)
	type fill struct {
		addr uint64
		v    value
	}
	fills := make([]fill, 0, pages)
	for i := range w.shadow {
		w.shadow[i] = make(map[uint64]value)
		w.owned[i] = w.owned[i][:0]
	}
	for i, p := range rng.Perm(pages) {
		owner := i % conns
		page := uint64(p)
		w.owned[owner] = append(w.owned[owner], page)
		f := fill{addr: page*layout.PageSize + uint64(rng.Intn(blocksPage))*blockBytes}
		rng.Read(f.v[:])
		w.shadow[owner][f.addr] = f.v
		w.vals[owner] = append(w.vals[owner], f.v)
		fills = append(fills, f)
	}
	return parallel(len(fills), func(i int) error {
		f := fills[i]
		return st.pool.Write(context.Background(), layout.Addr(f.addr), f.v[:], core.Meta{})
	})
}

func (w *poolWorkload) bind(c *conn) {
	if w.zipfS > 1 {
		w.zipf[c.idx] = rand.NewZipf(c.rng, w.zipfS, 1, uint64(len(w.owned[c.idx])-1))
	}
}

func (w *poolWorkload) step(c *conn) {
	pages := w.owned[c.idx]
	var pi int
	if z := w.zipf[c.idx]; z != nil {
		pi = int(z.Uint64())
	} else {
		pi = c.rng.Intn(len(pages))
	}
	addr := pages[pi]*layout.PageSize + uint64(c.rng.Intn(blocksPage))*blockBytes
	if c.rng.Float64() < w.readShare {
		var got []byte
		if c.do(opRead, func() (err error) {
			got, err = c.cl.Read(layout.Addr(addr), blockBytes, core.Meta{})
			return err
		}) != nil {
			return
		}
		if want := w.shadow[c.idx][addr]; !bytes.Equal(got, want[:]) {
			c.violate("read %#x: got %x, want %x", addr, got, want)
		}
		return
	}
	v := c.randValue()
	if c.do(opWrite, func() error { return c.cl.Write(layout.Addr(addr), v[:], core.Meta{}) }) != nil {
		delete(w.shadow[c.idx], addr) // outcome unknown: no longer checkable
		return
	}
	w.shadow[c.idx][addr] = v
	w.vals[c.idx] = append(w.vals[c.idx], v)
}

// check re-reads every address the workload wrote, directly from the pool.
func (w *poolWorkload) check(st *stack, cs []*conn) error {
	if w.durable {
		return nil // checked after the crash-image restart instead
	}
	sh := w.allShadow()
	return checkShadow(st, sh)
}

func (w *poolWorkload) allShadow() map[uint64]value {
	all := make(map[uint64]value)
	for _, sh := range w.shadow {
		for a, v := range sh {
			all[a] = v
		}
	}
	return all
}

func (w *poolWorkload) written() []value {
	var all []value
	for _, v := range w.vals {
		all = append(all, v...)
	}
	return all
}

func (w *poolWorkload) tamper(st *stack, c *conn) error {
	return tamperPool(st, c, w.allShadow(), true)
}

// tenantWorkload drives a standing set of tenants whose pages exceed the
// resident budget, with reads, writes and fork → COW write in the child
// → destroy cycles. Each connection owns half of the tenants.
type tenantWorkload struct {
	tenants, pagesPer, budget int
	readShare, writeShare     float64

	ids    []uint32
	owned  [conns][]int
	shadow [conns]map[tkey]value
	vals   [conns][]value
}

type tkey struct {
	tenant int
	vaddr  uint64
}

func (w *tenantWorkload) stackConfig() stackConfig {
	return stackConfig{memBytes: 16 << 20, residentPages: w.budget}
}

func (w *tenantWorkload) hasForks() bool { return true }

func (w *tenantWorkload) prefill(st *stack, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	w.ids = w.ids[:0]
	for i := range w.shadow {
		w.shadow[i] = make(map[tkey]value)
		w.owned[i] = w.owned[i][:0]
	}
	for t := 0; t < w.tenants; t++ {
		id, err := st.tenants.Create(ctx, w.pagesPer, 0)
		if err != nil {
			return fmt.Errorf("tenant create: %w", err)
		}
		w.ids = append(w.ids, id)
		w.owned[t%conns] = append(w.owned[t%conns], t)
	}
	type fill struct {
		k tkey
		v value
	}
	fills := make([][]fill, w.tenants)
	for t := range fills {
		for p := 0; p < w.pagesPer; p++ {
			f := fill{k: tkey{t, uint64(p)*layout.PageSize + uint64(rng.Intn(blocksPage))*blockBytes}}
			rng.Read(f.v[:])
			w.shadow[t%conns][f.k] = f.v
			w.vals[t%conns] = append(w.vals[t%conns], f.v)
			fills[t] = append(fills[t], f)
		}
	}
	// One goroutine per tenant: operations on one tenant serialize anyway.
	return parallel(w.tenants, func(t int) error {
		for _, f := range fills[t] {
			if err := st.tenants.Write(ctx, w.ids[t], f.k.vaddr, f.v[:], 0); err != nil {
				return fmt.Errorf("tenant prefill: %w", err)
			}
		}
		return nil
	})
}

func (w *tenantWorkload) bind(c *conn) {}

func (w *tenantWorkload) randAddr(c *conn) (int, uint64) {
	own := w.owned[c.idx]
	t := own[c.rng.Intn(len(own))]
	return t, uint64(c.rng.Intn(w.pagesPer))*layout.PageSize + uint64(c.rng.Intn(blocksPage))*blockBytes
}

func (w *tenantWorkload) step(c *conn) {
	t, vaddr := w.randAddr(c)
	id := w.ids[t]
	r := c.rng.Float64()
	switch {
	case r < w.readShare:
		w.readCheck(c, opRead, id, tkey{t, vaddr})
	case r < w.readShare+w.writeShare:
		v := c.randValue()
		if c.do(opWrite, func() error { return c.cl.TenantWrite(id, vaddr, v[:]) }) != nil {
			delete(w.shadow[c.idx], tkey{t, vaddr})
			return
		}
		w.shadow[c.idx][tkey{t, vaddr}] = v
		w.vals[c.idx] = append(w.vals[c.idx], v)
	default:
		w.forkCycle(c, t, vaddr)
	}
}

func (w *tenantWorkload) readCheck(c *conn, k opKind, id uint32, key tkey) {
	var got []byte
	if c.do(k, func() (err error) {
		got, err = c.cl.TenantRead(id, key.vaddr, blockBytes)
		return err
	}) != nil {
		return
	}
	if want := w.shadow[c.idx][key]; !bytes.Equal(got, want[:]) {
		c.violate("%s tenant %d %#x: got %x, want %x", opNames[k], id, key.vaddr, got, want)
	}
}

// forkCycle forks the tenant, writes one block in the child (a COW
// break), requires the child to read its write and the parent to read
// its own value, and destroys the child.
func (w *tenantWorkload) forkCycle(c *conn, t int, vaddr uint64) {
	id := w.ids[t]
	var child uint32
	if c.do(opFork, func() (err error) {
		child, err = c.cl.TenantFork(id)
		return err
	}) != nil {
		return
	}
	v := c.randValue()
	w.vals[c.idx] = append(w.vals[c.idx], v)
	if c.do(opChildWrite, func() error { return c.cl.TenantWrite(child, vaddr, v[:]) }) == nil {
		var got []byte
		if c.do(opChildRead, func() (err error) {
			got, err = c.cl.TenantRead(child, vaddr, blockBytes)
			return err
		}) == nil && !bytes.Equal(got, v[:]) {
			c.violate("child %d of %d %#x: got %x, want its own write %x", child, id, vaddr, got, v)
		}
	}
	w.readCheck(c, opParentRead, id, tkey{t, vaddr})
	c.do(opDestroy, func() error { return c.cl.TenantDestroy(child) })
}

// check reads every page of every standing tenant in full and compares
// it with the model, then requires the resident set to be within budget.
func (w *tenantWorkload) check(st *stack, cs []*conn) error {
	c := cs[0]
	for t, id := range w.ids {
		for p := 0; p < w.pagesPer; p++ {
			base := uint64(p) * layout.PageSize
			got, err := c.cl.TenantRead(id, base, layout.PageSize)
			if err != nil {
				return fmt.Errorf("tenant %d page %d: %w", id, p, err)
			}
			want := make([]byte, layout.PageSize)
			for b := uint64(0); b < blocksPage; b++ {
				v := w.shadow[t%conns][tkey{t, base + b*blockBytes}]
				copy(want[b*blockBytes:], v[:])
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("tenant %d page %d differs from the model after the run", id, p)
			}
		}
	}
	ts := st.tenants.Stats()
	if ts.ResidentPages > w.budget {
		return fmt.Errorf("resident pages %d exceed the budget %d", ts.ResidentPages, w.budget)
	}
	if ts.SwappedPages == 0 {
		return errors.New("no tenant page is swapped out: the workload does not exercise swap")
	}
	return nil
}

func (w *tenantWorkload) written() []value {
	var all []value
	for _, v := range w.vals {
		all = append(all, v...)
	}
	return all
}

// tamper flips one bit of a swapped-out tenant page on the swap device
// (the untrusted disk) and requires the read that faults it in to be
// refused as tampered. Swap-in installs the image unverified and the
// read's MAC check refuses it, which quarantines the frame's shard; the
// flipped block is then restored in the frame, the shard re-verified in
// place, and the page must read back bit-exact.
func (w *tenantWorkload) tamper(st *stack, c *conn) error {
	for t, id := range w.ids {
		for p := 0; p < w.pagesPer; p++ {
			base := uint64(p) * layout.PageSize
			slot := st.tenants.SwapSlotOf(id, base)
			if slot < 0 {
				continue
			}
			dev := st.tenants.Swap()
			orig := dev.Image(slot)
			bad := orig.Clone()
			bad.Data[0][0] ^= 1
			dev.Tamper(slot, bad)
			_, err := c.cl.TenantRead(id, base, blockBytes)
			if dev.Image(slot) == bad {
				dev.Tamper(slot, orig) // refused before swap-in
			}
			if !isTampered(err) {
				return fmt.Errorf("read of tenant %d page %d after a bit flip on the swap device: got %v, want a tampered refusal", id, p, err)
			}
			if err := restoreBlock(st, value(bad.Data[0]), value(orig.Data[0])); err != nil {
				return err
			}
			got, err := c.cl.TenantRead(id, base, blockBytes)
			if err != nil {
				return fmt.Errorf("read after restoring the swapped page: %w", err)
			}
			if want := w.shadow[t%conns][tkey{t, base}]; !bytes.Equal(got, want[:]) {
				return fmt.Errorf("restored swapped page reads %x, want %x", got, want)
			}
			return nil
		}
	}
	return errors.New("no swapped-out tenant page to tamper with")
}

// restoreBlock finds the frame block holding bad in any quarantined
// shard, writes good back and re-verifies that shard in place.
func restoreBlock(st *stack, bad, good value) error {
	states := st.pool.ShardStates()
	perShard := layout.Addr(st.pool.DataBytes() / uint64(st.pool.Shards()))
	for i, s := range states {
		if s == shard.StateServing {
			continue
		}
		m := st.pool.UntrustedMemory(i)
		for a := layout.Addr(0); a < perShard; a += blockBytes {
			if value(m.Snapshot(a)) == bad {
				m.Tamper(a, mem.Block(good))
				if err := st.pool.ReverifyShard(i); err != nil {
					return fmt.Errorf("re-verify shard %d after restoring the block: %w", i, err)
				}
				return nil
			}
		}
	}
	return errors.New("tampered block not found in any quarantined shard")
}

func isTampered(err error) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Status == server.StatusTampered
}

// parallel runs f(0..n-1) on prefillPar goroutines and returns the first
// error.
func parallel(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	workers := min(prefillPar, n)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
