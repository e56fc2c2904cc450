package tables

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// checkCells asserts the structure a probe relies on: n counts the
// occupied cells, load stays ≤ 1/2, no empty cell lies between a record's
// home and where it sits — the property a botched backward shift breaks,
// leaving a key resident but unreachable — and every record's tracker node
// names the cell the record sits in now.
func checkCells[K comparable](t testing.TB, tb *Table[K]) {
	t.Helper()
	size := uint64(len(tb.cells))
	if size&(size-1) != 0 || 2*tb.n > len(tb.cells) {
		t.Fatalf("%d records in %d cells", tb.n, size)
	}
	occupied := 0
	for j := range tb.cells {
		c := &tb.cells[j]
		if c.seq == 0 {
			continue
		}
		occupied++
		for i := tb.hash(c.key) & (size - 1); i != uint64(j); i = (i + 1) & (size - 1) {
			if tb.cells[i].seq == 0 {
				t.Fatalf("key %v sits in cell %d behind a hole at %d", c.key, j, i)
			}
		}
		if tb.tracker != nil && tb.tracker.Key(c.th) != int32(j) {
			t.Fatalf("key %v sits in cell %d, its tracker node says %d", c.key, j, tb.tracker.Key(c.th))
		}
	}
	if occupied != tb.n {
		t.Fatalf("n = %d, %d cells occupied", tb.n, occupied)
	}
}

// A cellOp is one step of a differential run: 0 Learn, 1 Delete, 2 Find,
// 3 Reset.
type cellOp struct{ op, key int }

// A tableShape is a table driveTable runs on: its bound, and the records
// its array has room for before the first op (0: the array starts nil).
type tableShape struct {
	reserve int
	bound   Config
}

// tableShapes: untracked and growing from nil through every size; tracked
// under LRU, reserved for 64 and grown past it, so every move on a grow or
// a shift re-points a tracker node; bounded under clock above every key set
// driveTable sees, so New reserves the array and it never grows.
var tableShapes = []tableShape{
	{0, Config{}},
	{64, Config{Policy: PolicyLRU}},
	{1024, Config{Capacity: 1024, Policy: PolicyClock}},
}

// driveTable runs ops against a table and a Go map and requires the same
// answer from every Find, the same size after every step and an intact
// structure throughout. Nothing expires and the bound, when there is one,
// exceeds the key set: the run exercises placement, backward shift and
// growth, not eviction.
func driveTable[K comparable](t testing.TB, hash func(K) uint64, shape tableShape, key func(int) K, ops []cellOp) {
	t.Helper()
	ports := testPorts(2)
	tb := New(time.Millisecond, time.Hour, shape.bound, nil, hash)
	if tb.cells == nil && shape.reserve > 0 {
		tb.cells = make([]slot[K], cellsFor(shape.reserve))
	}
	want := map[K]*netsim.Port{}
	for step, o := range ops {
		k := key(o.key)
		switch o.op {
		case 0:
			p := ports[step%2]
			tb.Learn(k, p, 0)
			want[k] = p
		case 1:
			tb.Delete(k)
			delete(want, k)
		case 2:
			_, e, ok := tb.Find(k, 0)
			if w, wok := want[k]; ok != wok || e.Port != w {
				t.Fatalf("step %d: Find(%v) = (%v, %v), map (%v, %v)", step, k, e.Port, ok, w, wok)
			}
		case 3:
			tb.Reset()
			clear(want)
		}
		if tb.Entries() != len(want) {
			t.Fatalf("step %d: %d records, map %d", step, tb.Entries(), len(want))
		}
		if tb.n <= 64 || step%256 == 0 { // the check is quadratic in the run length
			checkCells(t, tb)
		}
	}
	for k, w := range want {
		if _, e, ok := tb.Find(k, 0); !ok || e.Port != w {
			t.Fatalf("at the end: Find(%v) = (%v, %v), map %v", k, e.Port, ok, w)
		}
	}
	checkCells(t, tb)
}

// Hashes that build the runs a mixing hash makes rare. tailHash homes every
// key in the last four cells of any array, so runs wrap its end; clumpHash
// homes keys in eight adjacent cells, so runs overlap and a delete in the
// middle has to decide, cell by cell, what may move.
func tailHash(k uint64) uint64  { return ^uint64(0) - k&3 }
func clumpHash(k uint64) uint64 { return k & 7 }

func keyWord[K comparable](k K) uint64 {
	switch k := any(k).(type) {
	case uint64:
		return k
	case key128:
		return k.Hi
	}
	panic("unreachable")
}

// TestIndexAgreesWithMap: random Learn/Delete/Find streams over key sets
// small enough to collide constantly, for both key shapes, under the
// shipped mixers and under the run-building hashes above, on every table of
// tableShapes (named by its reservation, cap=).
func TestIndexAgreesWithMap(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { indexAgreesWithMap(t, func(i int) uint64 { return uint64(i) }) })
	t.Run("pair", func(t *testing.T) {
		indexAgreesWithMap(t, func(i int) key128 { return key128{uint64(i), uint64(i) * 3} })
	})
}

func indexAgreesWithMap[K comparable](t *testing.T, key func(int) K) {
	hashes := map[string]func(K) uint64{
		"mix":   hashOf[K](),
		"tail":  func(k K) uint64 { return tailHash(keyWord(k)) },
		"clump": func(k K) uint64 { return clumpHash(keyWord(k)) },
	}
	for name, hash := range hashes {
		for _, shape := range tableShapes {
			for _, keys := range []int{6, 48, 700} {
				rng := rand.New(rand.NewSource(int64(keys + shape.reserve)))
				ops := make([]cellOp, 20_000)
				for i := range ops {
					ops[i] = cellOp{op: rng.Intn(3), key: rng.Intn(keys)}
					if rng.Intn(4000) == 0 {
						ops[i].op = 3
					}
				}
				t.Run(fmt.Sprintf("%s/cap=%d/keys=%d", name, shape.reserve, keys), func(t *testing.T) {
					driveTable(t, hash, shape, key, ops)
				})
			}
		}
	}
}

// TestIndexBackwardShiftCases walks the delete case analysis by hand on an
// 8-cell array with a hash that homes key k at cell k&7 (keys ≥ 8 collide
// with k-8): which records may move into the hole, which must stay, and
// the same across the end of the array. The table is bounded at four
// (eight cells, reserved up front) and tracked, so every move also
// re-points a tracker node; the recency order, spelled in keys, must come
// out as the insertion order minus the deleted key.
func TestIndexBackwardShiftCases(t *testing.T) {
	cases := []struct {
		name string
		put  []uint64 // at most four keys, in order: load ≤ 1/2 keeps the array at eight cells
		del  uint64
		want [8]uint64 // resulting array, 0 for empty (keys are 1-based below)
	}{
		{"lone key", []uint64{1}, 1, [8]uint64{}},
		{"tail of a run: nothing moves", []uint64{1, 9, 17}, 17, [8]uint64{0, 1, 9}},
		{"head of a run of one home: all shift", []uint64{1, 9, 17}, 1, [8]uint64{0, 9, 17}},
		{"a key at its home stays", []uint64{1, 9, 3}, 1, [8]uint64{0, 9, 0, 3}},
		{"the shift skips a key at home and takes the one behind it", []uint64{1, 9, 3, 17}, 1, [8]uint64{0, 9, 17, 3}},
		{"a displaced key may come part of the way home", []uint64{1, 2, 9, 10}, 2, [8]uint64{0, 1, 9, 10}},
		{"wrapped run, delete before the end", []uint64{7, 15, 23}, 7, [8]uint64{23, 0, 0, 0, 0, 0, 0, 15}},
		{"wrapped run, delete after the end", []uint64{7, 15, 23}, 15, [8]uint64{23, 0, 0, 0, 0, 0, 0, 7}},
		{"across the end: bucket 0's own key stays, the one behind it wraps back", []uint64{7, 8, 15}, 7, [8]uint64{8, 0, 0, 0, 0, 0, 0, 15}},
	}
	ports := testPorts(1)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := New(time.Millisecond, time.Hour, Config{Capacity: 4, Policy: PolicyLRU}, nil, clumpHash)
			for _, k := range c.put {
				tb.Learn(k, ports[0], 0)
			}
			tb.Delete(c.del)
			var got [8]uint64
			for i := range tb.cells {
				if tb.cells[i].seq != 0 {
					got[i] = tb.cells[i].key
				}
			}
			if got != c.want {
				t.Fatalf("put %v, del %d: cells %v, want %v", c.put, c.del, got, c.want)
			}
			checkCells(t, tb)
			order := recencyOf(tb.tracker, func(i int32) uint64 { return tb.cells[i].key }).keys
			if want := slices.DeleteFunc(slices.Clone(c.put), func(k uint64) bool { return k == c.del }); !slices.Equal(order, want) {
				t.Fatalf("recency order %v, want %v", order, want)
			}
		})
	}
}

// FuzzTableAgreesWithMap lets the fuzzer write the operation stream: the
// first byte picks the hash and the table from tableShapes, then every byte
// is one op (low two bits) on one of 64 keys (the rest).
func FuzzTableAgreesWithMap(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 1, 5, 9})
	f.Add([]byte{1, 0, 4, 8, 12, 16, 1, 5, 2, 6})  // a wrapped run, deleted from the front
	f.Add([]byte{2, 0, 32, 64, 96, 33, 65, 97, 1}) // overlapping runs, delete the first head
	f.Add([]byte{4, 0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 3, 0, 2})
	f.Add([]byte{7, 0, 4, 8, 12, 16, 20, 24, 1, 5, 9, 2, 6, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hash := []func(uint64) uint64{Mix64, tailHash, clumpHash}[data[0]%3]
		shape := tableShapes[int(data[0]>>2)%len(tableShapes)]
		ops := make([]cellOp, len(data)-1)
		for i, b := range data[1:] {
			ops[i] = cellOp{op: int(b & 3), key: int(b >> 2)}
		}
		driveTable(t, hash, shape, func(i int) uint64 { return uint64(i) }, ops)
	})
}

// TestFlushExpiredWrappedRun: one sweep over a run that wraps the array's
// end, dead and live records interleaved — expired locks, corpses of a
// flushed port, live learns. Every eviction shifts the run back over the
// cell the walk is on; the sweep must still evict exactly the dead records
// in one call, leaving the live ones reachable.
func TestFlushExpiredWrappedRun(t *testing.T) {
	for _, policy := range []Policy{PolicyTimeout, PolicyLRU, PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			ports := testPorts(2)
			bound := Config{Policy: policy}
			if policy != PolicyTimeout {
				bound.Capacity = 16 // 32 cells, never grown
			}
			tb := New(time.Millisecond, time.Hour, bound, nil, tailHash)
			if tb.cells == nil {
				tb.cells = make([]slot[uint64], 32)
			}
			const keys = 15 // homes 28–31, the run covering 28–31 and 0–10
			for k := uint64(1); k <= keys; k++ {
				switch k % 3 {
				case 0:
					tb.Lock(k, ports[1], 0) // expires at the lock timeout
				case 1:
					tb.Learn(k, ports[0], 0) // a corpse once ports[0] is flushed
				case 2:
					tb.Learn(k, ports[1], 0) // live
				}
			}
			if len(tb.cells) != 32 || tb.cells[0].seq == 0 || tb.cells[31].seq == 0 {
				t.Fatalf("fixture: %d cells, run does not wrap", len(tb.cells))
			}
			tb.FlushPort(ports[0])
			now := time.Second
			tb.FlushExpired(now)
			for k := uint64(1); k <= keys; k++ {
				_, resident := tb.probe(tb.hash(k), k)
				if resident != (k%3 == 2) {
					t.Fatalf("key %d resident=%v after one sweep", k, resident)
				}
			}
			if tb.Entries() != keys/3 || tb.Len() != keys/3 {
				t.Fatalf("%d records, %d resident; want %d", tb.Entries(), tb.Len(), keys/3)
			}
			checkCells(t, tb)
			checkAccounting(t, tb)
		})
	}
}

// probeLengths fills a table with keys to exactly load 1/2 and returns the
// longest and the mean number of records a hit inspects.
func probeLengths[K comparable](hash func(K) uint64, keys []K) (longest int, mean float64) {
	port := testPorts(1)[0]
	tb := New(time.Millisecond, time.Hour, Config{}, nil, hash)
	for _, k := range keys {
		tb.Learn(k, port, 0)
	}
	mask := uint64(len(tb.cells) - 1)
	total := 0
	for j := range tb.cells {
		if c := &tb.cells[j]; c.seq != 0 {
			n := int((uint64(j)-hash(c.key))&mask) + 1
			total += n
			longest = max(longest, n)
		}
	}
	return longest, float64(total) / float64(len(keys))
}

// The hostile-key bound (DESIGN.md §5). With a uniform hash, 4096 keys in
// 8192 cells give a mean hit of 1.5 records and a longest probe in the
// twenties; the shipped mixers must stay near that on every structured key
// family below, because the probe keeps only the low 13 bits of the hash
// and each family holds those bits (or every bit but a few) constant.
const (
	hostileKeys      = 4096 // a power of two: the table sits at exactly load 1/2
	maxHostileProbe  = 48
	meanHostileProbe = 1.75
)

// TestProbeLengthOnHostileKeys states the bound for the key families a
// vendor or an attacker actually produces. Replace Mix64 by the identity or
// by one multiply and the "equal low bits" families put all 4096 keys in
// one run.
func TestProbeLengthOnHostileKeys(t *testing.T) {
	mac := func(m layers.MAC) uint64 { return m.Uint64() }
	macs := map[string]func(i int) uint64{
		"sequential hosts":      func(i int) uint64 { return mac(layers.HostMAC(i + 1)) },
		"one OUI, sequential":   func(i int) uint64 { return mac(layers.MAC{0x00, 0x1B, 0x21, byte(i >> 16), byte(i >> 8), byte(i)}) },
		"equal low 16 bits":     func(i int) uint64 { return uint64(i)<<16 | 0xBEEF },
		"equal low 24 bits":     func(i int) uint64 { return uint64(i)<<24 | 0xC0FFEE },
		"equal low 32 bits":     func(i int) uint64 { return uint64(i)<<32 | 0xDEADBEEF },
		"bit-reversed counter":  func(i int) uint64 { return bits.Reverse64(uint64(i+1)) >> 16 },
		"stride 4096":           func(i int) uint64 { return uint64(i+1) << 12 },
		"sequential, every OUI": func(i int) uint64 { return uint64(i%64)<<24 | uint64(i/64) },
	}
	for name, gen := range macs {
		t.Run("mac/"+name, func(t *testing.T) {
			keys := make([]uint64, hostileKeys)
			for i := range keys {
				keys[i] = gen(i)
			}
			checkProbes(t, Mix64, keys)
		})
	}
	host := func(i int) uint64 { return mac(layers.HostMAC(i + 1)) }
	pairs := map[string]func(i int) key128{
		"sequential pairs":     func(i int) key128 { return key128{host(i), host(i + 1)} },
		"constant source":      func(i int) key128 { return key128{host(0), host(i)} },
		"constant destination": func(i int) key128 { return key128{host(i), host(0)} },
		"both halves equal":    func(i int) key128 { return key128{host(i), host(i)} },
		"halves swapped": func(i int) key128 { // every pair beside its reverse
			if i%2 == 0 {
				return key128{host(i), host(i + 1)}
			}
			return key128{host(i), host(i - 1)}
		},
		"all pairs of 64 hosts": func(i int) key128 { return key128{host(i / 64), host(i % 64)} },
		"packed connections":    func(i int) key128 { return key128{0x0A000001_0A000002, uint64(40000+i)<<16 | 80} },
	}
	for name, gen := range pairs {
		t.Run("pair/"+name, func(t *testing.T) {
			keys := make([]key128, hostileKeys)
			for i := range keys {
				keys[i] = gen(i)
			}
			checkProbes(t, hashOf[key128](), keys)
		})
	}
}

func checkProbes[K comparable](t *testing.T, hash func(K) uint64, keys []K) {
	t.Helper()
	longest, mean := probeLengths(hash, keys)
	t.Logf("longest %d mean %.3f", longest, mean)
	if longest > maxHostileProbe || mean > meanHostileProbe {
		t.Fatalf("longest probe %d (bound %d), mean %.2f (bound %.2f)", longest, maxHostileProbe, mean, meanHostileProbe)
	}
}

// TestJunkSourceNeverBinds: the addresses no station may source a frame
// from, case by case, against every way a table can be asked to bind one.
// A junk key never takes a slot and never wins the discovery race — were
// "absent" read as "first copy" it would win on every port, forever.
func TestJunkSourceNeverBinds(t *testing.T) {
	cases := []struct {
		name string
		mac  layers.MAC
		junk bool
	}{
		{"zero", layers.ZeroMAC, true},
		{"broadcast", layers.BroadcastMAC, true},
		{"path control group", layers.PathCtlMulticast, true},
		{"IPv4 multicast", layers.MAC{0x01, 0x00, 0x5E, 0, 0, 1}, true},
		{"group bit alone", layers.MAC{0x01, 0, 0, 0, 0, 0}, true},
		{"group bit under a vendor OUI", layers.MAC{0x03, 0x1B, 0x21, 1, 2, 3}, true},
		{"host", layers.HostMAC(1), false},
		{"bridge", layers.BridgeMAC(1), false},
		{"every bit but the group bit", layers.MAC{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, false},
		{"low bit of the last octet", layers.MAC{0x02, 0, 0, 0, 0, 0x01}, false},
	}
	ports := testPorts(2)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			key := c.mac.Uint64()
			if JunkMAC(key) != c.junk {
				t.Fatalf("JunkMAC(%v) = %v", c.mac, !c.junk)
			}
			tb := New(time.Millisecond, time.Second, Config{Capacity: 4, Policy: PolicyLRU}, JunkMAC, Mix64)
			tb.Lock(key, ports[0], 0)
			tb.Learn(key, ports[0], 0)
			if _, bound := tb.Get(key, 0); bound == c.junk || (tb.Entries() == 0) != c.junk {
				t.Fatalf("bound = %v with %d entries", bound, tb.Entries())
			}
			tb.Reset()
			for _, establishing := range []bool{true, false} {
				for _, p := range ports { // a second port: the copy that went round a loop
					if v := tb.Race(key, p, 0, establishing); c.junk && v != RaceLost {
						t.Fatalf("Race(establishing=%v) on %v = %d, want RaceLost", establishing, p, v)
					}
				}
			}
			if first := tb.Race(layers.HostMAC(9).Uint64(), ports[0], 0, true); first != RaceWon {
				t.Fatalf("a host's first copy after the junk floods = %d, want RaceWon", first)
			}
		})
	}
}
