// Package core implements the paper's contribution: ARP-Path (FastPath)
// low-latency transparent bridges. Bridges exploit the race between flooded
// copies of an ARP Request to lock the minimum-latency path toward the
// source (§2.1.1), confirm it with the unicast ARP Reply (§2.1.2), forward
// all traffic over the established symmetric paths (§2.1.3), and repair
// broken paths with PathFail / PathRequest / PathReply control frames
// (§2.1.4). The optional in-switch ARP Proxy (§2.2, EtherProxy [5])
// suppresses redundant ARP floods.
//
// The mechanisms shared with the All-Path variants live below this
// package — the first-port rule is tables.Table.Race, the repair buffer
// bridge.Repairs; keying both by one MAC is what is ARP-Path's own.
package core

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// EntryState and Entry are the shared path-table definitions; the per-host
// table is the family's coarsest key granularity, not its own layout.
type (
	EntryState = tables.State
	Entry      = tables.Entry
)

// Entry states.
const (
	StateLocked  = tables.StateLocked
	StateLearned = tables.StateLearned
)

// LockTable is the ARP-Path locking table: MAC → (port, locked|learned,
// expiry), the bridge's only forwarding state. It is tables.Table keyed by
// the uint64-packed MAC (layers.MAC.Uint64): the simulator decodes the
// packed keys once per frame into the FrameView, and an 8-byte integer key
// hashes faster than a [6]byte array. The methods here only spell the two
// key forms — *Key for the packed keys of the forwarding path, plain names
// for layers.MAC callers; semantics, bounds and sweeps are the embedded
// Table's.
type LockTable struct {
	tables.Table[uint64]
}

// NewLockTable builds an empty unbounded table with the two ARP-Path
// timeouts: the short race window for locked entries and the long lifetime
// for confirmed (learned) entries.
func NewLockTable(lockTimeout, learnedTimeout time.Duration) *LockTable {
	return NewBoundedLockTable(lockTimeout, learnedTimeout, tables.Config{})
}

// NewBoundedLockTable builds an empty table with a capacity bound and
// eviction policy on top of the timeouts. The zero Config is the unbounded
// timeout baseline (exactly NewLockTable). Multicast and zero MACs are
// never bound.
func NewBoundedLockTable(lockTimeout, learnedTimeout time.Duration, bound tables.Config) *LockTable {
	t := new(LockTable)
	t.init(lockTimeout, learnedTimeout, bound)
	return t
}

// init builds the table NewBoundedLockTable returns in place, for a bridge
// that stores its table inside itself.
func (t *LockTable) init(lockTimeout, learnedTimeout time.Duration, bound tables.Config) {
	t.Table.Init(lockTimeout, learnedTimeout, bound, tables.JunkMAC, tables.Mix64)
}

// GetKey returns the live entry for a packed key.
func (t *LockTable) GetKey(key uint64, now time.Duration) (Entry, bool) {
	return t.Table.Get(key, now)
}

// Get returns the live entry for mac.
func (t *LockTable) Get(mac layers.MAC, now time.Duration) (Entry, bool) {
	return t.Table.Get(mac.Uint64(), now)
}

// LockKey binds a packed key to port in the locked state.
func (t *LockTable) LockKey(key uint64, port *netsim.Port, now time.Duration) {
	t.Table.Lock(key, port, now)
}

// Lock binds mac to port in the locked state.
func (t *LockTable) Lock(mac layers.MAC, port *netsim.Port, now time.Duration) {
	t.Table.Lock(mac.Uint64(), port, now)
}

// LearnKey binds a packed key to port in the learned state.
func (t *LockTable) LearnKey(key uint64, port *netsim.Port, now time.Duration) {
	t.Table.Learn(key, port, now)
}

// Learn binds mac to port in the learned state (path confirmed).
func (t *LockTable) Learn(mac layers.MAC, port *netsim.Port, now time.Duration) {
	t.Table.Learn(mac.Uint64(), port, now)
}

// Guard re-arms the race window on mac's current binding.
func (t *LockTable) Guard(mac layers.MAC, now time.Duration) { t.Table.Guard(mac.Uint64(), now) }

// RefreshKey extends the lifetime of a packed key's current entry.
func (t *LockTable) RefreshKey(key uint64, now time.Duration) { t.Table.Refresh(key, now) }

// Refresh extends the lifetime of mac's current entry.
func (t *LockTable) Refresh(mac layers.MAC, now time.Duration) { t.Table.Refresh(mac.Uint64(), now) }

// DeleteKey removes a packed key's entry.
func (t *LockTable) DeleteKey(key uint64) { t.Table.Delete(key) }

// Delete removes mac's entry.
func (t *LockTable) Delete(mac layers.MAC) { t.Table.Delete(mac.Uint64()) }

// Snapshot returns a copy of the live entries keyed by address.
func (t *LockTable) Snapshot(now time.Duration) map[layers.MAC]Entry {
	packed := t.Table.Snapshot(now)
	out := make(map[layers.MAC]Entry, len(packed))
	for key, e := range packed {
		out[layers.MACFromUint64(key)] = e
	}
	return out
}
