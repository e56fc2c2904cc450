// Package flowpath implements the finer-grained members of the All-Path
// family from the scalability study (Rojas et al., "All-Path Routing
// Protocols: Analysis of Scalability and Load Balancing Capabilities for
// Ethernet Networks"; PAPERS.md): Flow-Path, which locks one path per
// {source, destination} host pair on the first frame of the flow, and
// TCP-Path, which additionally races a fresh path per TCP connection
// (keyed by the 4-tuple) and falls back to ARP-Path semantics for
// everything that is not TCP.
//
// Both register through the topo protocol registry in init() — the
// builder, the fabric Spec codec and every harness pick them up by name
// ("flowpath", "tcppath") with no switch anywhere — which is exactly the
// out-of-tree shape the registry exists for. See DESIGN.md §10 for the
// semantics and the table-size trade-off the allpath experiment measures.
//
// Neither restates the family's mechanisms: discovery is tables.Table.Race
// on the variant's key (the flood's source MAC, the reverse connection
// key) and pair repair parks its frames in a bridge.Repairs[PairKey].
package flowpath

import (
	"time"

	"repro/internal/tables"
)

// PairKey is a directed forwarding key: two packed 64-bit halves. For
// Flow-Path pairs the halves are the packed source and destination MACs
// (layers.MAC.Uint64 — exact, no hashing); for TCP-Path connections they
// pack the IPv4 addresses and the TCP ports. Direction matters: (a, b)
// keys frames travelling a→b, and the reverse path is a separate entry.
type PairKey struct {
	Hi, Lo uint64
}

// PairTable is the Flow-Path and TCP-Path forwarding table: the shared
// path table keyed per directed pair (or per connection) instead of per
// host. Per-key state is where the All-Path scalability study says the
// memory bill arrives, so this is the instantiation the capacity bound
// (DESIGN.md §12) exists for.
type PairTable = tables.Table[PairKey]

// Entry is the shared path-table binding.
type Entry = tables.Entry

// NewPairTable builds an empty unbounded table with the race window and
// the confirmed-entry lifetime, keys unchecked (TCP-Path packs IP/port
// tuples into PairKey, so MAC junk rules do not apply).
func NewPairTable(lockTimeout, learnedTimeout time.Duration) *PairTable {
	return NewBoundedPairTable(lockTimeout, learnedTimeout, tables.Config{}, false)
}

// NewBoundedPairTable builds an empty table with a capacity bound and
// eviction policy. macKeys declares that both key halves are packed MACs:
// a pair with a multicast/broadcast or zero half is then never bound,
// exactly as the per-host table refuses such an address.
func NewBoundedPairTable(lockTimeout, learnedTimeout time.Duration, bound tables.Config, macKeys bool) *PairTable {
	var junk func(PairKey) bool
	if macKeys {
		junk = junkPair
	}
	return tables.New(lockTimeout, learnedTimeout, bound, junk, hashPair)
}

func hashPair(k PairKey) uint64 { return tables.Mix128(k.Hi, k.Lo) }

func junkPair(k PairKey) bool { return tables.JunkMAC(k.Hi) || tables.JunkMAC(k.Lo) }
