package flowpath

import (
	"fmt"
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// testPorts returns n distinct live ports (one hub host cabled to n
// peers; the hub's end of each link is the port).
func testPorts(n int) []*netsim.Port {
	net := netsim.NewNetwork(1)
	hub := hostpkg.New(net, "hub", 1)
	ports := make([]*netsim.Port, n)
	for i := range ports {
		peer := hostpkg.New(net, fmt.Sprintf("p%d", i+1), i+2)
		ports[i] = net.Connect(hub, peer, netsim.DefaultLinkConfig()).A()
	}
	return ports
}

// TestPairTableJunkKeyGuard: MAC-keyed pair tables must reject the same
// halves LockTable.LockKey rejects — multicast/broadcast and the zero
// MAC — while tuple-keyed tables (TCP-Path connections) accept zero
// halves as legal encodings.
func TestPairTableJunkKeyGuard(t *testing.T) {
	ports := testPorts(1)
	bcast := layers.BroadcastMAC.Uint64()
	mcast := layers.MAC{0x01, 0x00, 0x5E, 0, 0, 1}.Uint64()
	good := layers.HostMAC(1).Uint64()

	macTab := NewBoundedPairTable(time.Millisecond, time.Second, tables.Config{}, true)
	for _, k := range []PairKey{
		{Hi: bcast, Lo: good}, // broadcast source half
		{Hi: good, Lo: bcast}, // broadcast destination half
		{Hi: mcast, Lo: good},
		{Hi: good, Lo: mcast},
		{Hi: 0, Lo: good}, // zero MAC halves
		{Hi: good, Lo: 0},
	} {
		macTab.Lock(k, ports[0], 0)
		macTab.Learn(k, ports[0], 0)
		if _, ok := macTab.Get(k, 0); ok {
			t.Fatalf("junk pair %x/%x was admitted to a MAC-keyed table", k.Hi, k.Lo)
		}
	}
	if macTab.Len() != 0 || macTab.Entries() != 0 {
		t.Fatalf("junk keys pinned %d entries (%d resident)", macTab.Entries(), macTab.Len())
	}
	macTab.Learn(PairKey{Hi: good, Lo: layers.HostMAC(2).Uint64()}, ports[0], 0)
	if macTab.Len() != 1 {
		t.Fatal("legitimate MAC pair rejected")
	}

	// Tuple-keyed (TCP-Path): zero halves are legal 4-tuple encodings.
	connTab := NewBoundedPairTable(time.Millisecond, time.Second, tables.Config{}, false)
	connTab.Learn(PairKey{Hi: 0, Lo: 443}, ports[0], 0)
	if _, ok := connTab.Get(PairKey{Hi: 0, Lo: 443}, 0); !ok {
		t.Fatal("tuple-keyed table rejected a zero half")
	}
}
