// Package hotpath exercises the hotpath analyzer: functions annotated
// //fabric:hotpath must avoid the usual allocation constructs.
package hotpath

import "fmt"

type ring struct {
	buf []int
	msg string
}

func sink(v any) {}

//fabric:hotpath
func (r *ring) badClosure(k int) func() int {
	return func() int { return k } // want "capturing func literals allocate"
}

//fabric:hotpath
func (r *ring) badFmt(k int) {
	r.msg = fmt.Sprintf("k=%d", k) // want "fmt.Sprintf .* allocates"
}

//fabric:hotpath
func badConcat(a, b string) string {
	return a + b // want "string concatenation"
}

//fabric:hotpath
func badAppend(vals []int) []int {
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		out = append(out, v) // want "append to function-local slice out"
	}
	return out
}

//fabric:hotpath
func (r *ring) goodReuse(vals []int) {
	r.buf = r.buf[:0] // receiver-owned buffer: reused across calls
	for _, v := range vals {
		r.buf = append(r.buf, v)
	}
}

//fabric:hotpath
func badBox(k int) {
	sink(k) // want "boxed into interface parameter"
}

//fabric:hotpath
func okBoxPtr(r *ring) {
	sink(r) // pointers fit the interface word: no allocation
}

//fabric:hotpath
func badConv(b []byte) string {
	return string(b) // want "copies and allocates"
}

//fabric:hotpath
func okPanic(k int) {
	if k < 0 {
		panic(fmt.Sprintf("negative %d", k)) // dying words may format
	}
}

func notHot(k int) string {
	return fmt.Sprintf("%d", k) // unannotated: out of scope
}
