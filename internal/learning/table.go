// Package learning implements the classic transparent learning switch: a
// MAC forwarding table with aging, and a bridge that floods unknown
// destinations. It is both a baseline on its own (safe only on loop-free
// topologies) and the forwarding core the STP baseline gates with port
// states.
package learning

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// DefaultAging matches 802.1D's default filtering-database aging time.
const DefaultAging = 300 * time.Second

// Table is a MAC learning table: the shared path table keyed by the
// uint64-packed address (the keys the FrameView pre-computes), used
// without its lock state. Every entry is learned with no race window, so
// under a capacity bound (DESIGN.md §12) every victim is evictable; aging
// is the table's learned timeout.
type Table struct {
	tables.Table[uint64]
}

// NewTable returns an empty unbounded table with the given aging time.
func NewTable(aging time.Duration) *Table {
	return NewBoundedTable(aging, tables.Config{})
}

// NewBoundedTable returns an empty table with a capacity bound and
// eviction policy on top of aging. The zero Config is the unbounded
// aging-only baseline.
func NewBoundedTable(aging time.Duration, bound tables.Config) *Table {
	if aging <= 0 {
		aging = DefaultAging
	}
	t := new(Table)
	t.Init(aging, aging, bound, tables.JunkMAC, tables.Mix64)
	return t
}

// SetAging changes the aging time for future learns. 802.1D shortens it to
// ForwardDelay during topology changes; existing entries keep their
// deadlines until relearned or flushed.
func (t *Table) SetAging(d time.Duration) { t.SetLearnedTimeout(d) }

// LearnKey binds a packed key to port, refreshing the expiry. Multicast
// source addresses are invalid on the wire and ignored.
func (t *Table) LearnKey(key uint64, port *netsim.Port, now time.Duration) {
	t.Table.Learn(key, port, now)
}

// Learn binds mac to port, refreshing the expiry.
func (t *Table) Learn(mac layers.MAC, port *netsim.Port, now time.Duration) {
	t.Table.Learn(mac.Uint64(), port, now)
}

// LookupKey returns the live binding for a packed key, if any.
func (t *Table) LookupKey(key uint64, now time.Duration) (*netsim.Port, bool) {
	e, ok := t.Table.Get(key, now)
	return e.Port, ok
}

// Lookup returns the live binding for mac, if any.
func (t *Table) Lookup(mac layers.MAC, now time.Duration) (*netsim.Port, bool) {
	return t.LookupKey(mac.Uint64(), now)
}
