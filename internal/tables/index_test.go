package tables

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/layers"
)

// checkIndex asserts the structure a probe relies on: n counts the
// occupied buckets, load stays ≤ 1/2, and no empty bucket lies between a
// key's home and where it sits — the property a botched backward shift
// breaks, leaving a key resident but unreachable.
func checkIndex[K comparable](t testing.TB, x *index[K]) {
	t.Helper()
	size := uint64(len(x.buckets))
	if size&(size-1) != 0 || 2*x.n > len(x.buckets) {
		t.Fatalf("%d keys in %d buckets", x.n, size)
	}
	occupied := 0
	for j, b := range x.buckets {
		if b.ref == 0 {
			continue
		}
		occupied++
		for i := x.hash(b.key) & (size - 1); i != uint64(j); i = (i + 1) & (size - 1) {
			if x.buckets[i].ref == 0 {
				t.Fatalf("key %v sits in bucket %d behind a hole at %d", b.key, j, i)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("n = %d, %d buckets occupied", x.n, occupied)
	}
}

// An indexOp is one step of a differential run: 0 put (if absent), 1 del,
// 2 get, 3 reset.
type indexOp struct{ op, key int }

// driveIndex runs ops against the index and a Go map and requires the same
// answer from every get, the same size after every step and an intact
// structure throughout. put's contract (the key is absent) is kept the way
// Table keeps it: probe first.
func driveIndex[K comparable](t testing.TB, hash func(K) uint64, capacity int, key func(int) K, ops []indexOp) {
	t.Helper()
	x := newIndex(hash, capacity)
	want := map[K]int32{}
	for step, o := range ops {
		k := key(o.key)
		switch o.op {
		case 0:
			if _, ok := x.get(hash(k), k); !ok {
				x.put(k, int32(step))
				want[k] = int32(step)
			}
		case 1:
			x.del(k)
			delete(want, k)
		case 2:
			got, ok := x.get(hash(k), k)
			if w, wok := want[k]; ok != wok || got != w {
				t.Fatalf("step %d: get(%v) = (%d, %v), map (%d, %v)", step, k, got, ok, w, wok)
			}
		case 3:
			x.reset()
			clear(want)
		}
		if x.n != len(want) {
			t.Fatalf("step %d: %d keys, map %d", step, x.n, len(want))
		}
		if x.n <= 64 || step%256 == 0 { // the check is quadratic in the run length
			checkIndex(t, &x)
		}
	}
	for k, w := range want {
		if got, ok := x.get(hash(k), k); !ok || got != w {
			t.Fatalf("at the end: get(%v) = (%d, %v), map %d", k, got, ok, w)
		}
	}
	checkIndex(t, &x)
}

// Hashes that build the runs a mixing hash makes rare. tailHash homes every
// key in the last four buckets of any array, so runs wrap its end;
// clumpHash homes keys in eight adjacent buckets, so runs overlap and a
// delete in the middle has to decide, bucket by bucket, what may move.
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

// TestIndexAgreesWithMap: random put/del/get streams over key sets small
// enough to collide constantly, for both key shapes, under the shipped
// mixers and under the run-building hashes above; starting from nil (so
// the array grows several times mid-run) and pre-sized (so it never does).
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
		for _, capacity := range []int{0, 64} {
			for _, keys := range []int{6, 48, 700} {
				rng := rand.New(rand.NewSource(int64(keys + capacity)))
				ops := make([]indexOp, 20_000)
				for i := range ops {
					ops[i] = indexOp{op: rng.Intn(3), key: rng.Intn(keys)}
					if rng.Intn(4000) == 0 {
						ops[i].op = 3
					}
				}
				t.Run(fmt.Sprintf("%s/cap=%d/keys=%d", name, capacity, keys), func(t *testing.T) {
					driveIndex(t, hash, capacity, key, ops)
				})
			}
		}
	}
}

// TestIndexBackwardShiftCases walks the delete case analysis by hand on an
// 8-bucket array with a hash that homes key k at bucket k&7 (keys ≥ 8
// collide with k-8): which buckets may move into the hole, which must
// stay, and the same across the end of the array.
func TestIndexBackwardShiftCases(t *testing.T) {
	cases := []struct {
		name string
		put  []uint64 // at most four keys, in order: load ≤ 1/2 keeps the array at eight buckets
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
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := newIndex(clumpHash, 0)
			for _, k := range c.put {
				x.put(k, int32(k))
			}
			x.del(c.del)
			var got [8]uint64
			for i, b := range x.buckets {
				if b.ref != 0 {
					got[i] = b.key
				}
			}
			if got != c.want {
				t.Fatalf("put %v, del %d: buckets %v, want %v", c.put, c.del, got, c.want)
			}
			checkIndex(t, &x)
		})
	}
}

// FuzzIndexAgreesWithMap lets the fuzzer write the operation stream: the
// first byte picks the hash and whether the index is pre-sized, then every
// byte is one op (low two bits) on one of 64 keys (the rest).
func FuzzIndexAgreesWithMap(f *testing.F) {
	f.Add([]byte{0, 0, 4, 8, 1, 5, 9})
	f.Add([]byte{1, 0, 4, 8, 12, 16, 1, 5, 2, 6})  // a wrapped run, deleted from the front
	f.Add([]byte{2, 0, 32, 64, 96, 33, 65, 97, 1}) // overlapping runs, delete the first head
	f.Add([]byte{4, 0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hash := []func(uint64) uint64{Mix64, tailHash, clumpHash}[data[0]%3]
		capacity := int(data[0]>>2&1) * 16
		ops := make([]indexOp, len(data)-1)
		for i, b := range data[1:] {
			ops[i] = indexOp{op: int(b & 3), key: int(b >> 2)}
		}
		driveIndex(t, hash, capacity, func(i int) uint64 { return uint64(i) }, ops)
	})
}

// probeLengths fills an index with keys to exactly load 1/2 and returns the
// longest and the mean number of buckets a hit inspects.
func probeLengths[K comparable](hash func(K) uint64, keys []K) (longest int, mean float64) {
	x := newIndex(hash, 0)
	for i, k := range keys {
		x.put(k, int32(i))
	}
	mask := uint64(len(x.buckets) - 1)
	total := 0
	for j, b := range x.buckets {
		if b.ref != 0 {
			n := int((uint64(j)-hash(b.key))&mask) + 1
			total += n
			longest = max(longest, n)
		}
	}
	return longest, float64(total) / float64(len(keys))
}

// The hostile-key bound (DESIGN.md §5). With a uniform hash, 4096 keys in
// 8192 buckets give a mean hit of 1.5 buckets and a longest probe in the
// twenties; the shipped mixers must stay near that on every structured key
// family below, because the index keeps only the low 13 bits of the hash
// and each family holds those bits (or every bit but a few) constant.
const (
	hostileKeys      = 4096 // a power of two: the index sits at exactly load 1/2
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
