package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/obs"
	"aisebmt/internal/persist"
	"aisebmt/internal/server"
	"aisebmt/internal/shard"
	"aisebmt/internal/tenant"
)

// The daemon's defaults (cmd/secmemd flags) that the benchmark keeps.
const (
	demoKey        = "secmemd-demo-key"
	defaultMACBits = 128
	defaultSlots   = 64
	treeWorkers    = 4
	treeCache      = 1024
	requestTimeout = 5 * time.Second
	drainBudget    = 10 * time.Second
	snapshotEvery  = time.Minute
)

// stackConfig is what a workload changes from the daemon's defaults.
type stackConfig struct {
	memBytes      uint64
	dataDir       string         // empty: in-memory pool
	fsync         persist.Policy // WAL sync policy with a data directory
	residentPages int            // tenant resident-set budget, 0 disables it
}

// stack is one in-process secmemd: the pool (recovered from a data
// directory when durable), the tenant layer and the wire server with
// observability wired, listening on a loopback port.
type stack struct {
	cfg      stackConfig
	obs      *obs.Service
	pool     *shard.Pool
	store    *persist.Store
	tenants  *tenant.Service
	srv      *server.Server
	addr     string
	serveErr chan error
	recovery persist.RecoveryInfo
	tr       *tracer // nil in untraced runs
}

func shardConfig(memBytes uint64, svc *obs.Service) shard.Config {
	return shard.Config{
		Shards:     shard.DefaultShards,
		QueueDepth: shard.DefaultQueueDepth,
		BatchMax:   shard.DefaultBatchMax,
		Obs:        svc,
		Core: core.Config{
			DataBytes:           memBytes,
			MACBits:             defaultMACBits,
			Key:                 []byte(demoKey),
			Encryption:          core.AISE,
			Integrity:           core.BonsaiMT,
			SwapSlots:           defaultSlots,
			TreeUpdateWorkers:   treeWorkers,
			TreeNodeCacheBlocks: treeCache,
		},
	}
}

// openStack assembles the stack in cmd/secmemd's order: the gated server
// listens first, then the pool is recovered (or built), the tenant layer
// wraps it, and Publish releases the gate. With tr non-nil the timing
// wrappers sit between the server and the pool, the tenant layer, the
// commit hook and the filesystem.
func openStack(sc stackConfig, tr *tracer) (*stack, error) {
	ringSize := obs.DefaultRingSize
	if tr != nil {
		ringSize = traceRingSize
	}
	svc := obs.NewService(shard.DefaultShards, ringSize)
	obs.RegisterBuildInfo(svc.Reg, obs.ReadBuildInfo())
	cfg := shardConfig(sc.memBytes, svc)
	st := &stack{cfg: sc, obs: svc, tr: tr, serveErr: make(chan error, 1)}

	if sc.dataDir != "" {
		opts := persist.Options{
			Dir:           sc.dataDir,
			Key:           []byte(demoKey),
			Fsync:         sc.fsync,
			SnapshotEvery: snapshotEvery,
			Obs:           svc,
		}
		if tr != nil {
			opts.FS = tr.fs
		}
		store, err := persist.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("persist open: %w", err)
		}
		store.EnableAux()
		st.store = store
	}
	srvOpts := server.Options{Timeout: requestTimeout, Obs: svc}
	if st.store != nil {
		store := st.store
		srvOpts.Checkpoint = func() (string, int64, error) {
			if err := store.Checkpoint(); err != nil {
				return "", 0, err
			}
			path, n := store.LastSnapshot()
			return path, n, nil
		}
	}
	st.srv = server.NewGated(srvOpts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeStore()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.addr = ln.Addr().String()
	go func() { st.serveErr <- st.srv.Serve(ln) }()

	if st.store != nil {
		st.pool, st.recovery, err = st.store.Recover(cfg)
	} else {
		st.pool, err = shard.New(cfg)
	}
	if err != nil {
		st.abort()
		return nil, fmt.Errorf("pool: %w", err)
	}
	tcfg := tenant.Config{Pool: st.pool, ResidentPages: sc.residentPages, Obs: svc}
	if st.store != nil && st.store.AuxEnabled() {
		tcfg.Journal = st.store
		st.tenants, err = tenant.Recover(tcfg, st.store.TakeAuxRecovery())
		if err != nil {
			st.pool.Close()
			st.abort()
			return nil, fmt.Errorf("tenant recovery: %w", err)
		}
		st.store.SetAuxSource(st.tenants.FreezeOps, st.tenants.ThawOps, st.tenants.SnapshotState)
	} else {
		st.tenants = tenant.New(tcfg)
	}
	var backend server.Backend = st.pool
	var tenants server.TenantBackend = st.tenants
	if tr != nil {
		backend = &timedPool{Pool: st.pool, tr: tr}
		tenants = &timedTenants{Service: st.tenants, tr: tr}
		if st.store != nil {
			st.pool.SetCommitHook(&timedCommit{store: st.store, tr: tr})
		}
	}
	st.srv.SetTenants(tenants)
	st.srv.Publish(backend)
	return st, nil
}

// abort tears down a stack whose pool was never published.
func (st *stack) abort() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	<-st.serveErr
	st.closeStore()
}

func (st *stack) closeStore() {
	if st.store != nil {
		st.store.Close()
	}
}

// shutdown runs secmemd's SIGTERM path: drain the server (which closes
// and verifies the pool), cut the final checkpoint, close the store. It
// returns the checkpoint's duration separately.
func (st *stack) shutdown() (checkpoint time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := st.srv.Shutdown(ctx); err != nil {
		return 0, fmt.Errorf("server shutdown: %w", err)
	}
	if err := <-st.serveErr; !errors.Is(err, server.ErrServerClosed) {
		return 0, fmt.Errorf("serve: %w", err)
	}
	if st.store == nil {
		return 0, nil
	}
	t0 := time.Now()
	if err := st.store.Checkpoint(); err != nil {
		return 0, fmt.Errorf("final checkpoint: %w", err)
	}
	checkpoint = time.Since(t0)
	if err := st.store.Close(); err != nil {
		return 0, fmt.Errorf("store close: %w", err)
	}
	return checkpoint, nil
}

// dial opens n wire clients to the stack.
func (st *stack) dial(n int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(st.addr, 5*time.Second)
		if err != nil {
			for _, c := range cs {
				c.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}
