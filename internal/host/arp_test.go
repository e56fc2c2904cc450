package host

import (
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// arpPools are the address sets a differential run draws its 16 keys from,
// key 15 always the zero IP that learn refuses and no probe may find:
//   - spread: HostIP(1…15), what a fabric's hosts hold;
//   - wrap: addresses whose home is the last cell of every array up to 64
//     cells, so each run starts at the array's end and wraps to its front;
//   - pair: homes alternating between the last two cells of an 8-cell
//     array, so runs from two homes interleave across the wrap.
var arpPools = func() [][16]layers.Addr4 {
	var spread, wrap, pair [16]layers.Addr4
	for i := range 15 {
		spread[i] = layers.HostIP(i + 1)
	}
	for n, w, p := 0, 0, 0; w < 15 || p < 15; n++ {
		ip := layers.Addr4{10, 1, byte(n >> 8), byte(n)}
		if w < 15 && arpHome(ip, 63) == 63 {
			wrap[w], w = ip, w+1
		}
		if p < 15 && arpHome(ip, 7) == uint64(6+p%2) {
			pair[p], p = ip, p+1
		}
	}
	return [][16]layers.Addr4{spread, wrap, pair}
}()

// checkARPCells is the probe array's structural check: a power-of-two
// array at load ≤ 1/2, no binding behind a hole on the way from its home,
// n cells occupied. With no learn waiting to fold, the cells must also hold
// exactly the model's bindings.
func checkARPCells(t testing.TB, c *arpCache, model map[layers.Addr4]arpCell) {
	t.Helper()
	size := uint64(len(c.cells))
	if size&(size-1) != 0 || 2*c.n > len(c.cells) {
		t.Fatalf("%d bindings in %d cells", c.n, size)
	}
	folded := len(c.fresh) == 0
	if folded && c.n != len(model) {
		t.Fatalf("n = %d, the model holds %d", c.n, len(model))
	}
	occupied := 0
	for j, e := range c.cells {
		if e.ip.IsZero() {
			continue
		}
		occupied++
		for i := arpHome(e.ip, size-1); i != uint64(j); i = (i + 1) & (size - 1) {
			if c.cells[i].ip.IsZero() {
				t.Fatalf("%v sits in cell %d behind a hole at %d", e.ip, j, i)
			}
		}
		if m, ok := model[e.ip]; folded && (!ok || m != e) {
			t.Fatalf("cell %d holds %+v, the model %+v (present %v)", j, e, m, ok)
		}
	}
	if occupied != c.n {
		t.Fatalf("n = %d, %d cells occupied", c.n, occupied)
	}
}

// ARP op verbs: a driveARP op byte is a verb in its low four bits and a
// key into the pool in its high four.
const (
	opLearn   = 0 // 0–9
	opLookup  = 10
	opLookup2 = 11
	opLen     = 12
	opTick    = 13 // advance the clock a quarter of the cache timeout
	opWait    = 14 // advance it three quarters
	opFlush   = 15
)

// driveARP runs ops against one host's cache and a plain map side by side.
// A binding lives four ticks, so lookups meet expired entries and delete
// them from every position of a run; a lookup, Len or Flush folds what was learned
// since, and sixteen learns in a row fold on their own.
func driveARP(t testing.TB, pool *[16]layers.Addr4, ops []byte) {
	net := netsim.NewNetwork(1)
	h := New(net, "h", 1)
	c, v := &h.arp, h.ARP()
	model := map[layers.Addr4]arpCell{}
	for step, b := range ops {
		ip := pool[b>>4]
		switch verb := b & 15; {
		case verb < opLookup:
			mac := layers.HostMAC(step + 1)
			c.learn(ip, mac)
			if !ip.IsZero() {
				model[ip] = arpCell{ip: ip, mac: mac, expires: h.now() + arpCacheTimeout}
			}
		case verb <= opLookup2:
			got, ok := v.Lookup(ip)
			want, live := model[ip]
			if live && want.expires <= h.now() {
				delete(model, ip)
				want, live = arpCell{}, false
			}
			if ok != live || got != want.mac {
				t.Fatalf("step %d: Lookup(%v) = %v, %v; the model says %v, %v", step, ip, got, ok, want.mac, live)
			}
		case verb == opLen:
			if v.Len() != len(model) {
				t.Fatalf("step %d: Len() = %d, the model holds %d", step, v.Len(), len(model))
			}
		case verb == opTick:
			net.RunFor(arpCacheTimeout / 4)
		case verb == opWait:
			net.RunFor(3 * arpCacheTimeout / 4)
		case verb == opFlush:
			v.Flush()
			clear(model)
		}
		checkARPCells(t, c, model)
	}
	if v.Len() != len(model) {
		t.Fatalf("at the end: Len() = %d, the model holds %d", v.Len(), len(model))
	}
	checkARPCells(t, c, model)
}

// TestARPCacheAgreesWithMap holds the probe-array cache to a plain map
// over random runs from each pool: learn, rebinding, batched folds,
// lookup, delete on expiry, Flush, Len and growth. Half the runs are
// learn-heavy, so batches fill and fold on their own.
func TestARPCacheAgreesWithMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := range arpPools {
		for run := range 300 {
			ops := make([]byte, 300)
			rng.Read(ops)
			for i := range ops {
				if run%2 == 1 && rng.Intn(10) < 9 {
					ops[i] = ops[i]&^15 | opLearn
				}
			}
			driveARP(t, &arpPools[p], ops)
		}
	}
}

// TestARPCacheWrappedShift: bindings a, b and c fold into cells 6, 7 and
// 0 of an 8-cell array — homes 6, 7, 7 — and only a has expired. Its
// lookup shifts the run back: b and c stay put, since moving either would
// put it before its home, and both must still be found.
func TestARPCacheWrappedShift(t *testing.T) {
	pool := arpPools[2] // homes 6, 7, 6, 7, … in an 8-cell array
	a, b, c := byte(0<<4), byte(1<<4), byte(3<<4)
	driveARP(t, &pool, []byte{a, opTick, opTick, b, c, opWait, a | opLookup, b | opLookup, c | opLookup})
}

// FuzzARPCacheAgreesWithMap is TestARPCacheAgreesWithMap's search: the
// first byte picks the pool, the rest are driveARP's ops.
func FuzzARPCacheAgreesWithMap(f *testing.F) {
	f.Add([]byte{2, 0, opTick, opTick, 1 << 4, 3 << 4, opWait, opLookup, 1<<4 | opLookup, 3<<4 | opLookup})
	f.Add([]byte{1, 0, 1 << 4, 2 << 4, 3 << 4, 4 << 4, 5 << 4, 6 << 4, 7 << 4, 8 << 4, 9 << 4, 10 << 4, 11 << 4, 12 << 4, 13 << 4, 14 << 4, 0, opWait, 1<<4 | opLookup, opLen})
	f.Add([]byte{0, 0, 1 << 4, 2 << 4, opFlush, opLookup, 1<<4 | opLookup, 15 << 4, 15<<4 | opLookup, opLen})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		driveARP(t, &arpPools[int(data[0])%len(arpPools)], data[1:])
	})
}
