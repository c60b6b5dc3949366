package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aisebmt/internal/core"
	"aisebmt/internal/layout"
)

// checkShadow reads every modelled address straight from the pool and
// compares it with the last acked write.
func checkShadow(st *stack, sh map[uint64]value) error {
	addrs := sortedAddrs(sh)
	return parallel(len(addrs), func(i int) error {
		a := addrs[i]
		got := make([]byte, blockBytes)
		if err := st.pool.Read(context.Background(), layout.Addr(a), got, core.Meta{}); err != nil {
			return fmt.Errorf("read back %#x: %w", a, err)
		}
		if want := sh[a]; !bytes.Equal(got, want[:]) {
			return fmt.Errorf("read back %#x: got %x, want the last acked write %x", a, got, want)
		}
		return nil
	})
}

func sortedAddrs(sh map[uint64]value) []uint64 {
	addrs := make([]uint64, 0, len(sh))
	for a := range sh {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// tamperPool flips one bit of a written data block in the shard's
// untrusted memory and requires the wire read of it to be refused as
// tampered. The block is then restored; with reverify the shard is
// re-verified in place and must serve the block's value again.
func tamperPool(st *stack, c *conn, sh map[uint64]value, reverify bool) error {
	if len(sh) == 0 {
		return fmt.Errorf("no written block to tamper with")
	}
	addr := sortedAddrs(sh)[0]
	shards := uint64(st.pool.Shards())
	page := addr / layout.PageSize
	idx := int(page % shards)
	local := layout.Addr((page/shards)*layout.PageSize + addr%layout.PageSize)
	m := st.pool.UntrustedMemory(idx)
	orig := m.Snapshot(local)
	bad := orig
	bad[0] ^= 1
	m.Tamper(local, bad)
	_, err := c.cl.Read(layout.Addr(addr), blockBytes, core.Meta{})
	m.Tamper(local, orig)
	if !isTampered(err) {
		return fmt.Errorf("read of %#x after a bit flip at rest: got %v, want a tampered refusal", addr, err)
	}
	if !reverify {
		return nil
	}
	if err := st.pool.ReverifyShard(idx); err != nil {
		return fmt.Errorf("re-verify shard %d after restoring the block: %w", idx, err)
	}
	got, err := c.cl.Read(layout.Addr(addr), blockBytes, core.Meta{})
	if err != nil {
		return fmt.Errorf("read of the restored block: %w", err)
	}
	if want := sh[addr]; !bytes.Equal(got, want[:]) {
		return fmt.Errorf("restored block reads %x, want %x", got, want)
	}
	return nil
}

// scanPlaintext requires that no value the workload wrote appears
// verbatim in any shard's untrusted memory, on the tenant swap device, or
// (durable runs) in the write-ahead logs at any byte offset.
func scanPlaintext(st *stack, vals []value) (int, error) {
	set := make(map[value]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	scanned := 0
	for i := 0; i < st.pool.Shards(); i++ {
		m := st.pool.UntrustedMemory(i)
		for a := layout.Addr(0); uint64(a) < m.Size(); a += blockBytes {
			if _, ok := set[value(m.Snapshot(a))]; ok {
				return scanned, fmt.Errorf("a written value appears in plaintext in shard %d memory at %#x", i, a)
			}
			scanned++
		}
	}
	dev := st.tenants.Swap()
	for slot := 0; slot < st.pool.Shards()*defaultSlots; slot++ {
		img := dev.Image(slot)
		if img == nil {
			continue
		}
		for _, b := range img.Data {
			if _, ok := set[value(b)]; ok {
				return scanned, fmt.Errorf("a written value appears in plaintext on the swap device, slot %d", slot)
			}
			scanned++
		}
	}
	if st.cfg.dataDir == "" {
		return scanned, nil
	}
	prefix := make(map[uint64]struct{}, len(vals))
	for _, v := range vals {
		prefix[binary.LittleEndian.Uint64(v[:8])] = struct{}{}
	}
	ents, err := os.ReadDir(st.cfg.dataDir)
	if err != nil {
		return scanned, err
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(st.cfg.dataDir, e.Name()))
		if err != nil {
			return scanned, err
		}
		for off := 0; off+blockBytes <= len(b); off++ {
			if _, ok := prefix[binary.LittleEndian.Uint64(b[off:])]; !ok {
				continue
			}
			if _, ok := set[value(b[off:off+blockBytes])]; ok {
				return scanned, fmt.Errorf("a written value appears in plaintext in %s at offset %d", e.Name(), off)
			}
		}
		scanned += len(b) / blockBytes
	}
	return scanned, nil
}
