package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refLess is the event order written out as a plain lexicographic compare:
// the reference Key.Less and the heap are held to.
func refLess(a, b Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Seq < b.Seq
}

// TestKeyLessAgreesWithReference holds the borrow-chain compare to the
// lexicographic one on the words where a carry chain goes wrong: zero,
// one, the sign bits of both signed readings and all-ones, every pair of
// every combination, plus each key against its neighbours that differ
// only in the top or the bottom bit of one word. At stays non-negative, as
// it does in every queue (scheduling before now panics), so its top bit is
// bit 62.
func TestKeyLessAgreesWithReference(t *testing.T) {
	ats := []time.Duration{0, 1, 1 << 62, math.MaxInt64}
	words := []uint64{0, 1, 1<<63 - 1, 1 << 63, math.MaxUint64}
	var keys []Key
	for _, at := range ats {
		for _, owner := range words {
			for _, seq := range words {
				keys = append(keys, Key{at, owner, seq})
			}
		}
	}
	check := func(a, b Key) {
		t.Helper()
		if got, want := a.Less(b), refLess(a, b); got != want {
			t.Fatalf("%+v.Less(%+v) = %v, want %v", a, b, got, want)
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			check(a, b)
		}
		for _, bit := range []uint{0, 62} {
			b := a
			b.At ^= 1 << bit
			check(a, b)
			check(b, a)
		}
		for _, bit := range []uint{0, 63} {
			b, c := a, a
			b.Owner ^= 1 << bit
			c.Seq ^= 1 << bit
			check(a, b)
			check(b, a)
			check(a, c)
			check(c, a)
		}
	}
	if KeyAfter(math.MaxInt64) != MaxKey || KeyAfter(7) != (Key{At: 8}) {
		t.Fatalf("KeyAfter does not saturate: %+v, %+v", KeyAfter(math.MaxInt64), KeyAfter(7))
	}
}

// FuzzEventHeapAgreesWithSort drives the heap with a byte-coded stream of
// pushes, pops and pushes that repeat a pending time (equal At, so the
// order falls to owner and sequence), with the extreme words of
// TestKeyLessAgreesWithReference mixed in. Every pop must return the
// minimum of a plain slice under refLess, and the heap property — again
// under refLess — must hold after every operation.
func FuzzEventHeapAgreesWithSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 9, 9, 9, 1, 1, 1, 1})
	f.Add([]byte{2, 4, 4, 4, 0, 3, 3, 3, 2, 0, 0, 0, 1, 1, 2, 1, 1, 1})
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	ats := []time.Duration{0, 1, 1 << 62, math.MaxInt64}
	words := []uint64{0, 1, 1<<63 - 1, 1 << 63, math.MaxUint64}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h eventHeap
		var ref []Key
		var seq uint64
		pick := func(b byte) (time.Duration, uint64) {
			if b&0x80 != 0 {
				return ats[int(b)%len(ats)], words[int(b>>2)%len(words)]
			}
			return time.Duration(b & 0x0f), uint64(b >> 4)
		}
		for len(ops) >= 4 {
			op, a, o, s := ops[0]%3, ops[1], ops[2], ops[3]
			ops = ops[4:]
			switch {
			case op == 1 && len(ref) > 0:
				m := 0
				for i := range ref {
					if refLess(ref[i], ref[m]) {
						m = i
					}
				}
				want := ref[m]
				ref = append(ref[:m], ref[m+1:]...)
				if got := h.popMin(); got.Key != want {
					t.Fatalf("popMin = %+v, sorted reference has %+v", got.Key, want)
				}
			default:
				at, _ := pick(a)
				if op == 2 && len(ref) > 0 {
					at = ref[int(a)%len(ref)].At
				}
				_, owner := pick(o)
				// Sequence numbers never repeat, as an owner's never do;
				// the extreme words ride in the high bits.
				_, hi := pick(s)
				k := Key{at, owner, hi&^0xffff | seq&0xffff}
				seq++
				ref = append(ref, k)
				h.push(entry{Key: k, idx: int32(seq)})
			}
			if len(h) != len(ref) {
				t.Fatalf("heap holds %d entries, reference %d", len(h), len(ref))
			}
			for i := 1; i < len(h); i++ {
				if refLess(h[i].Key, h[(i-1)/2].Key) {
					t.Fatalf("heap property broken at %d: %+v below its parent %+v", i, h[i].Key, h[(i-1)/2].Key)
				}
			}
		}
	})
}

// BenchmarkEventHeap is the queue's own number: one popMin and one push per
// op (the hold model — the popped key comes back a random 1–4096 ns later)
// at a fixed depth. 3, 160 and 700 are the near-heap depths measured on
// pump_forward, steady_unicast and wide_unicast; 4096 is bench/perf's
// schedule_run_ns_d4096 micro.
func BenchmarkEventHeap(b *testing.B) {
	for _, depth := range []int{3, 160, 700, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var h eventHeap
			var seq uint64
			for i := 0; i < depth; i++ {
				h.push(entry{Key: Key{At: time.Duration(rng.Intn(4096)), Owner: uint64(1 + rng.Intn(1024)), Seq: seq}})
				seq++
			}
			var deltas [1024]time.Duration
			for i := range deltas {
				deltas[i] = time.Duration(1 + rng.Intn(4096))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en := h.popMin()
				en.At += deltas[i%len(deltas)]
				en.Seq = seq
				seq++
				h.push(en)
			}
		})
	}
}
