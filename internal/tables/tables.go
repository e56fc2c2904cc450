// Package tables holds the fabric's one forwarding table and its bounding
// machinery: Table[K], the locking/learning path table every protocol
// instantiates per key type (core.LockTable and learning.Table over packed
// MACs, flowpath.PairTable over pairs and connections); an eviction policy
// enum and the capacity/policy Config carried through the protocol codecs;
// and a deterministic recency Tracker implementing LRU and clock
// (second-chance) victim selection.
//
// Determinism contract: victim order is a pure function of the sequence of
// Insert/Touch/Remove/Reject calls — never of Go map iteration order, the
// shard count, or GOMAXPROCS. The tracker is an intrusive doubly-linked
// list over a slice arena with a free list, so steady-state churn
// (remove + insert at equal occupancy) allocates nothing.
package tables

import "fmt"

// Policy selects how a bounded table picks eviction victims.
type Policy uint8

const (
	// PolicyTimeout is the unbounded baseline: entries die only by
	// timeout or flush (lazy expiry plus the amortized sweep). It has no
	// deterministic victim order, so it cannot be combined with a
	// capacity bound.
	PolicyTimeout Policy = iota
	// PolicyLRU evicts the least-recently-used entry first.
	PolicyLRU
	// PolicyClock is the classic second-chance approximation: a hand
	// sweeps a ring of entries, clearing reference bits, and evicts the
	// first entry found unreferenced. Cheaper metadata traffic than LRU
	// (a touch sets a bit instead of relinking), near-LRU behaviour.
	PolicyClock
)

// String returns the codec spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyTimeout:
		return "timeout"
	case PolicyLRU:
		return "lru"
	case PolicyClock:
		return "clock"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy parses a codec spelling. The empty string means the timeout
// baseline, so absent JSON fields decode to the unbounded default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "timeout":
		return PolicyTimeout, nil
	case "lru":
		return PolicyLRU, nil
	case "clock":
		return PolicyClock, nil
	}
	return PolicyTimeout, fmt.Errorf("tables: unknown eviction policy %q (want timeout, lru or clock)", s)
}

// Config bounds one table. The zero value is today's behaviour: unbounded,
// timeout-only expiry.
type Config struct {
	// Capacity is the maximum number of stored entries (live or corpse)
	// before the table evicts. 0 means unbounded.
	Capacity int
	// Policy selects the victim order. Capacity > 0 requires LRU or
	// clock; timeout has no victim order to offer.
	Policy Policy
}

// Validate rejects configurations with no defined eviction order.
func (c Config) Validate() error {
	if c.Capacity < 0 {
		return fmt.Errorf("tables: negative capacity %d", c.Capacity)
	}
	if c.Capacity > 0 && c.Policy == PolicyTimeout {
		return fmt.Errorf("tables: capacity %d needs an eviction policy (lru or clock); timeout is unbounded-only", c.Capacity)
	}
	return nil
}

// ParseConfig builds and validates a Config from the codec representation.
func ParseConfig(capacity int, policy string) (Config, error) {
	p, err := ParsePolicy(policy)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Capacity: capacity, Policy: p}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Tracked reports whether a table with this config maintains a recency
// tracker. A tracker without a capacity (Capacity 0, Policy lru/clock)
// is legal: it orders entries but never forces an eviction — the
// configuration used by the capacity=∞ differential golden tests.
func (c Config) Tracked() bool { return c.Policy != PolicyTimeout }

// RejectBudget bounds how many race-guarded victims one insert may skip
// over before admitting the new entry above capacity. Guarded entries
// must never be evicted (moving a binding mid-race reopens the §2.1.1
// hazards), but scanning past all of them on every insert would make an
// over-capacity table quadratic when open race windows dominate — the
// exact regime an eviction-pressure workload creates. Rejected victims
// are re-ranked (LRU: moved most-recent; clock: hand advanced), so
// successive inserts probe fresh candidates and the budget stays
// effective without a full walk. Evictions themselves are not budgeted:
// each one makes progress toward the bound.
const RejectBudget = 8
