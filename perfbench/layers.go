package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aisebmt/internal/obs"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// layerSnap is the layer counters read around a timed phase.
type layerSnap struct {
	pool      shard.ServiceStats
	tenants   tenant.Stats
	mem       runtime.MemStats
	fs        fsSnap
	handlerUS float64 // obs secmemd_request_duration_us sum, ok outcomes
	handled   float64 // its count
}

func snapLayers(st *stack) layerSnap {
	var s layerSnap
	s.pool = st.pool.Stats()
	s.tenants = st.tenants.Stats()
	runtime.ReadMemStats(&s.mem)
	if st.tr != nil {
		s.fs = st.tr.fs.snap()
	}
	s.handlerUS, s.handled = requestHistogram(st.obs)
	return s
}

// requestHistogram sums the server's request-duration histogram over
// every op with an ok outcome, read from the same exposition /metrics
// serves.
func requestHistogram(svc *obs.Service) (sum, count float64) {
	var buf bytes.Buffer
	if err := svc.WritePrometheus(&buf); err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `outcome="ok"`) {
			continue
		}
		var dst *float64
		switch {
		case strings.HasPrefix(line, "secmemd_request_duration_us_sum{"):
			dst = &sum
		case strings.HasPrefix(line, "secmemd_request_duration_us_count{"):
			dst = &count
		default:
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			*dst += v
		}
	}
	return sum, count
}

// layerRow is one line of the traced run's per-layer table: a layer's
// self time per traced request and where the number comes from.
type layerRow struct {
	Layer  string  `json:"layer"`
	US     float64 `json:"us_per_op"`
	Share  float64 `json:"share_of_rtt"`
	Source string  `json:"source"`
}

type layerInputs struct {
	tenant       bool // the mix runs over the tenant layer
	st           *stack
	cs           []*conn
	base, traced *phaseResult
	checkpoint   time.Duration
	verifySweep  []float64
	recovers     []float64
	walRecords   []float64
}

type stageSums struct{ queue, coalesce, app, fsync, exec float64 }

func (s stageSums) total() float64 { return s.queue + s.coalesce + s.app + s.fsync + s.exec }

// perLayer derives the per-layer split of the traced phase. Client spans,
// backend call spans and obs stage records share one trace ID per wire
// request; a layer's self time is its span minus what its child spans
// cover, and the residual is the part of the round trip that no span
// inside the server process covers (loopback TCP, the codec on both
// sides, client scheduling).
func perLayer(in layerInputs) ([]layerRow, map[string]metric) {
	tr := in.st.tr
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	calls := map[uint64]float64{} // trace → ns inside the backend call
	var shardNs, shardN float64
	var tenantNs, tenantN [numOps]float64
	tenantOp := map[string]opKind{"fork": opFork, "read": opRead, "write": opWrite, "destroy": opDestroy}
	for _, c := range tr.calls {
		if c.Trace != 0 {
			calls[c.Trace] += float64(c.Dur)
		}
		if c.Layer == "shard" {
			shardNs += float64(c.Dur)
			shardN++
		}
		if c.Layer == "tenant" {
			k := tenantOp[c.Op]
			tenantNs[k] += float64(c.Dur)
			tenantN[k]++
		}
	}
	stages := map[uint64]stageSums{}
	type batchKey struct {
		shard          uint32
		coalesce, tree int64
	}
	batches := map[batchKey]float64{}
	for _, r := range tr.records {
		s := stages[r.TraceID]
		s.queue += float64(r.QueueNs)
		s.coalesce += float64(r.CoalesceNs)
		s.app += float64(r.AppendNs)
		s.fsync += float64(r.FsyncNs)
		s.exec += float64(r.ExecNs)
		stages[r.TraceID] = s
		// Records of one batch share its coalesce and tree costs; the
		// enqueue time of the batch's first request is not recorded, so
		// the shared pair identifies the batch.
		batches[batchKey{r.Shard, r.CoalesceNs, r.TreeNs}] = float64(r.TreeNs)
	}
	var n, rtt, call, covered float64
	var sum stageSums
	var reads, writes, forks float64
	for _, c := range in.cs {
		for _, s := range c.spans {
			n++
			rtt += float64(s.Dur)
			call += calls[s.Trace]
			if st, ok := stages[s.Trace]; ok {
				covered++
				sum.queue += st.queue
				sum.coalesce += st.coalesce
				sum.app += st.app
				sum.fsync += st.fsync
				sum.exec += st.exec
			}
			switch s.Op {
			case "read", "child_read", "parent_read":
				reads++
			case "write", "child_write":
				writes++
			case "fork":
				forks++
			}
		}
	}
	us := func(ns float64) float64 { return ratio(ns, n) / 1e3 }
	b, a := in.traced.before, in.traced.after
	handler := ratio(a.handlerUS-b.handlerUS, a.handled-b.handled) // µs per request
	rttUS, callUS := us(rtt), us(call)
	backend := "shard submit/hand-off"
	callSource := "timing server.Backend"
	if in.tenant {
		backend = "tenant+vm self (page faults, swap, COW, pool submit)"
		callSource = "timing server.TenantBackend"
	}
	rows := []layerRow{
		{"wire+client (residual)", rttUS - handler, 0, "client spans − obs secmemd_request_duration_us"},
		{"server dispatch", handler - callUS, 0, "obs secmemd_request_duration_us − " + callSource},
		{backend, callUS - us(sum.total()), 0, callSource + " − obs stage records"},
		{"shard queue wait", us(sum.queue), 0, "obs stage records (QueueNs)"},
		{"shard drain+coalesce", us(sum.coalesce), 0, "obs stage records (CoalesceNs)"},
		{"persist WAL append", us(sum.app), 0, "obs stage records (AppendNs)"},
		{"persist fsync", us(sum.fsync), 0, "obs stage records (FsyncNs)"},
		{"core exec (AISE pads, MACs, BMT verify)", us(sum.exec), 0, "obs stage records (ExecNs)"},
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].US, rttUS)
	}
	baseRTT := in.base.meanUS
	rows = append(rows,
		layerRow{"= traced round trip", rttUS, 1, "client spans"},
		layerRow{"untraced round trip", baseRTT, ratio(baseRTT, rttUS), "client latencies, untraced phase"},
	)

	ops := float64(in.traced.completed)
	dp, dc := a.pool, a.pool.Core
	bc := b.pool.Core
	put("server.self_us_per_op", rttUS-callUS, "us")
	put("shard.call_us_per_op", ratio(shardNs, shardN)/1e3, "us")
	put("shard.queue_us_per_op", us(sum.queue), "us")
	put("shard.ops_per_batch", ratio(float64(dp.BatchedOps-b.pool.BatchedOps), float64(dp.Batches-b.pool.Batches)), "count")
	put("shard.verify_sweep_s", median(in.verifySweep), "s")
	put("shard.close_s", float64(tr.closeNs.Load())/1e9, "s")
	put("core.exec_us_per_op", us(sum.exec), "us")
	put("core.pad_gens_per_op", ratio(float64(dc.PadGens-bc.PadGens), ops), "count")
	put("core.mac_ops_per_op", ratio(float64(dc.MACOps-bc.MACOps), ops), "count")
	put("core.tree_verifies_per_read", ratio(float64(dc.TreeVerifies-bc.TreeVerifies), reads), "count")
	var treeSum float64
	for _, t := range batches {
		treeSum += t
	}
	put("integrity.tree_us_per_batch", ratio(treeSum, float64(len(batches)))/1e3, "us")
	put("integrity.nodes_hashed_per_write", ratio(float64(dc.TreeNodesHashed-bc.TreeNodesHashed), writes), "count")
	hits, misses := float64(dc.TreeWBHits-bc.TreeWBHits), float64(dc.TreeWBMisses-bc.TreeWBMisses)
	put("integrity.wb_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("persist.commit_us_per_batch", ratio(float64(tr.commitNs.Load()), float64(tr.commits.Load()))/1e3, "us")
	put("persist.fsyncs_per_write", ratio(float64(a.fs.syncs-b.fs.syncs), writes), "count")
	put("persist.fsync_us_per_write", ratio(float64(a.fs.syncNs-b.fs.syncNs), writes)/1e3, "us")
	put("persist.bytes_per_user_byte", ratio(float64(a.fs.bytes-b.fs.bytes), writes*blockBytes), "ratio")
	put("persist.recover_s", median(in.recovers), "s")
	put("persist.wal_records_replayed", median(in.walRecords), "count")
	put("persist.checkpoint_s", in.checkpoint.Seconds(), "s")
	for _, k := range []opKind{opFork, opRead, opWrite, opDestroy} {
		put("tenant."+opNames[k]+"_us", ratio(tenantNs[k], tenantN[k])/1e3, "us")
	}
	bv, av := b.tenants.VM, a.tenants.VM
	put("vm.page_faults_per_op", ratio(float64(av.PageFaults-bv.PageFaults), ops), "count")
	put("vm.swap_outs_per_op", ratio(float64(av.SwapOuts-bv.SwapOuts), ops), "count")
	put("vm.cow_breaks_per_fork", ratio(float64(av.COWBreaks-bv.COWBreaks), forks), "count")
	tlbH, tlbM := float64(av.TLBHits-bv.TLBHits), float64(av.TLBMisses-bv.TLBMisses)
	put("vm.tlb_hit_ratio", ratio(tlbH, tlbH+tlbM), "ratio")
	put("runtime.alloc_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops), "B")
	put("runtime.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC), "count")
	put("trace.residual_share", ratio(rttUS-handler, rttUS), "ratio")
	put("trace.overhead_share", 1-ratio(float64(in.traced.completed)/in.traced.elapsed.Seconds(),
		float64(in.base.completed)/in.base.elapsed.Seconds()), "ratio")
	put("trace.span_coverage", ratio(covered, n), "ratio")
	return rows, m
}

func printTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer split, %s (traced phase, mean per wire request):\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-52s %9.2f us %6.1f%%   %s\n", r.Layer, r.US, 100*r.Share, r.Source)
	}
}

// writeSpans writes every span the traced run kept: client round trips,
// backend and tenant call spans, and the obs stage records.
func writeSpans(dir, workload string, seed int64, cs []*conn, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Kind string `json:"kind"`
		Span any    `json:"span"`
	}
	for _, c := range cs {
		for _, s := range c.spans {
			enc.Encode(line{"client", s})
		}
	}
	for _, s := range tr.calls {
		enc.Encode(line{"call", s})
	}
	for _, r := range tr.records {
		enc.Encode(line{"obs", r})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
