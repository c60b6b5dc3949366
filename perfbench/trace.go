package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// traceRingSize is the per-shard obs trace ring in traced runs. The
// collector drains the rings every collectEvery, so a ring must hold
// what a shard publishes in that interval.
const (
	traceRingSize = 1 << 14
	collectEvery  = 50 * time.Millisecond
)

// callSpan is the time one wire request spent inside a backend call
// (the pool, or the tenant layer), keyed by the request's trace ID.
type callSpan struct {
	Trace uint64 `json:"trace_id"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_unix_ns"`
	Dur   int64  `json:"dur_ns"`
}

// tracer holds the traced run's instruments. Its wrappers record only
// while on is set, so a traced run can measure an untraced baseline on
// the same stack first.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	calls []callSpan

	commits, commitOps, commitNs atomic.Int64
	closeNs                      atomic.Int64

	fs *countingFS

	recMu   sync.Mutex
	records map[recKey]obs.Record
	stop    chan struct{}
	done    chan struct{}
}

type recKey struct {
	trace uint64
	start int64
	shard uint32
	op    uint8
}

func newTracer() *tracer {
	return &tracer{fs: &countingFS{FS: persist.OSFS()}, records: make(map[recKey]obs.Record)}
}

func (t *tracer) call(layer, op string, trace uint64, start time.Time) {
	if !t.on.Load() {
		return
	}
	d := time.Since(start).Nanoseconds()
	t.mu.Lock()
	t.calls = append(t.calls, callSpan{Trace: trace, Layer: layer, Op: op, Start: start.UnixNano(), Dur: d})
	t.mu.Unlock()
}

// startCollector drains the stack's obs trace rings until stopCollector.
func (t *tracer) startCollector(svc *obs.Service) {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(collectEvery)
		defer tick.Stop()
		var buf []obs.Record
		for {
			select {
			case <-tick.C:
			case <-t.stop:
				t.collect(svc, buf[:0])
				return
			}
			buf = t.collect(svc, buf[:0])
		}
	}()
}

func (t *tracer) stopCollector() {
	close(t.stop)
	<-t.done
}

func (t *tracer) collect(svc *obs.Service, buf []obs.Record) []obs.Record {
	buf = svc.SnapshotTraces(buf)
	t.recMu.Lock()
	for _, r := range buf {
		t.records[recKey{r.TraceID, r.StartNs, r.Shard, r.Op}] = r
	}
	t.recMu.Unlock()
	return buf
}

// timedPool is the server.Backend wrapper: it times the data-plane calls
// into the pool. Every other method is the pool's own.
type timedPool struct {
	*shard.Pool
	tr *tracer
}

func (p *timedPool) Read(ctx context.Context, a layout.Addr, dst []byte, meta core.Meta) error {
	t0 := time.Now()
	err := p.Pool.Read(ctx, a, dst, meta)
	p.tr.call("shard", "read", meta.Trace, t0)
	return err
}

func (p *timedPool) Write(ctx context.Context, a layout.Addr, src []byte, meta core.Meta) error {
	t0 := time.Now()
	err := p.Pool.Write(ctx, a, src, meta)
	p.tr.call("shard", "write", meta.Trace, t0)
	return err
}

func (p *timedPool) Close() error {
	t0 := time.Now()
	err := p.Pool.Close()
	p.tr.closeNs.Store(time.Since(t0).Nanoseconds())
	return err
}

// timedTenants is the server.TenantBackend wrapper.
type timedTenants struct {
	*tenant.Service
	tr *tracer
}

func (s *timedTenants) Fork(ctx context.Context, id uint32, trace uint64) (uint32, error) {
	t0 := time.Now()
	cid, err := s.Service.Fork(ctx, id, trace)
	s.tr.call("tenant", "fork", trace, t0)
	return cid, err
}

func (s *timedTenants) Destroy(ctx context.Context, id uint32, trace uint64) error {
	t0 := time.Now()
	err := s.Service.Destroy(ctx, id, trace)
	s.tr.call("tenant", "destroy", trace, t0)
	return err
}

func (s *timedTenants) Read(ctx context.Context, id uint32, vaddr uint64, n int, trace uint64) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Service.Read(ctx, id, vaddr, n, trace)
	s.tr.call("tenant", "read", trace, t0)
	return b, err
}

func (s *timedTenants) Write(ctx context.Context, id uint32, vaddr uint64, data []byte, trace uint64) error {
	t0 := time.Now()
	err := s.Service.Write(ctx, id, vaddr, data, trace)
	s.tr.call("tenant", "write", trace, t0)
	return err
}

// timedCommit is the shard.CommitHook wrapper around Store.Commit.
type timedCommit struct {
	store *persist.Store
	tr    *tracer
}

func (h *timedCommit) Commit(shardIdx int, ops []shard.MutOp) error {
	t0 := time.Now()
	err := h.store.Commit(shardIdx, ops)
	if h.tr.on.Load() {
		h.tr.commits.Add(1)
		h.tr.commitOps.Add(int64(len(ops)))
		h.tr.commitNs.Add(time.Since(t0).Nanoseconds())
	}
	return err
}

// countingFS is the persist.FS wrapper: it counts bytes written and
// times every file sync. It counts at all times; readers take deltas.
type countingFS struct {
	persist.FS
	syncs, syncNs, bytes atomic.Int64
}

type fsSnap struct{ syncs, syncNs, bytes int64 }

func (f *countingFS) snap() fsSnap {
	return fsSnap{f.syncs.Load(), f.syncNs.Load(), f.bytes.Load()}
}

func (f *countingFS) Create(name string) (persist.File, error) {
	h, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: h, fs: f}, nil
}

func (f *countingFS) OpenFile(name string) (persist.File, error) {
	h, err := f.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: h, fs: f}, nil
}

func (f *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.syncs.Add(1)
	f.syncNs.Add(time.Since(t0).Nanoseconds())
	return err
}

type countingFile struct {
	persist.File
	fs *countingFS
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.fs.bytes.Add(int64(n))
	return n, err
}

func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := c.File.WriteAt(p, off)
	c.fs.bytes.Add(int64(n))
	return n, err
}

func (c *countingFile) Sync() error {
	t0 := time.Now()
	err := c.File.Sync()
	c.fs.syncs.Add(1)
	c.fs.syncNs.Add(time.Since(t0).Nanoseconds())
	return err
}
