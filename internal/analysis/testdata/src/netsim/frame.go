// Package netsim is a fixture stand-in for repro/internal/netsim: just
// enough surface for the frameownership fixtures (a pooled Frame with
// Retain/Release), plus a coordinator file the determinism goroutine
// rule holds like any other.
package netsim

// Frame mimics the pooled, refcounted frame.
type Frame struct{ refs int }

// Retain takes a reference and returns the frame for chaining.
func (f *Frame) Retain() *Frame { f.refs++; return f }

// Release drops a reference.
func (f *Frame) Release() { f.refs-- }
