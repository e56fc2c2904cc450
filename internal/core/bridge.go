package core

import (
	"cmp"
	"errors"
	"time"

	"repro/internal/bridge"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// The fixed timing and sizing of every bridge of the ARP-Path family, as
// the NetFPGA design fixes them when it is built. Flow-Path and TCP-Path
// run on the same values, so the All-Path variants compare like for like.
const (
	// DefaultLockTimeout is the race window a Config leaves unset.
	DefaultLockTimeout = 200 * time.Millisecond
	// LearnedTimeout is the lifetime of confirmed path entries; traffic
	// refreshes it.
	LearnedTimeout = 120 * time.Second
	// RepairTimeout bounds how long frames buffer while a PathRequest is
	// outstanding before they are dropped.
	RepairTimeout = 500 * time.Millisecond
	// RepairBuffer is the maximum number of frames buffered per unknown
	// destination during repair.
	RepairBuffer = 64
	// ProxyTimeout is the proxy cache lifetime for snooped IP→MAC
	// bindings.
	ProxyTimeout = 60 * time.Second
)

// Config tunes an ARP-Path bridge: the knobs the evaluation varies. The
// struct is also the protocol's spec-file form: the json tags are the
// wire names (topo.Register decodes into it directly).
type Config struct {
	// LockTimeout is the race window: how long a locked entry filters
	// duplicate flood copies and may carry the returning reply. It must
	// exceed the network's flood traversal time.
	LockTimeout layers.Duration `json:"lock_timeout,omitempty"`
	// Proxy enables the in-switch ARP Proxy (§2.2, EtherProxy [5]).
	Proxy bool `json:"proxy,omitempty"`
	// DisableRepair turns §2.1.4 off entirely: unicast table misses are
	// silently dropped. Exists only for the repair ablation (T4), which
	// shows the dataplane blackholes without it.
	DisableRepair bool `json:"disable_repair,omitempty"`
	// TableCapacity bounds the locking table's entry count (0 =
	// unbounded). A bound requires TablePolicy. See DESIGN.md §12.
	TableCapacity int `json:"table_capacity,omitempty"`
	// TablePolicy selects the eviction policy for a bounded table:
	// "lru" or "clock" ("" / "timeout" is the unbounded baseline).
	TablePolicy string `json:"table_policy,omitempty"`
}

// DefaultConfig returns the defaults used throughout the experiments.
func DefaultConfig() Config {
	return Config{LockTimeout: layers.Duration(DefaultLockTimeout)}
}

// WithDefaults fills an unset LockTimeout; the booleans' zero value is
// their default and the table bound's is unbounded.
func (c Config) WithDefaults() Config {
	c.LockTimeout = cmp.Or(c.LockTimeout, layers.Duration(DefaultLockTimeout))
	return c
}

// Check reports the first value a bridge cannot run with, naming the field
// by its spec key. The registry runs it on every decoded spec, so a bad
// spec file is an error; the constructor runs it too, where a failure is
// programmer misuse and panics.
func (c Config) Check() error {
	if c.LockTimeout <= 0 {
		return errors.New("lock_timeout must be positive")
	}
	_, err := tables.ParseConfig(c.TableCapacity, c.TablePolicy)
	return err
}

// Bridge is an ARP-Path bridge. It is fully transparent: hosts run
// unmodified ARP/IP stacks (§2.2 "zero configuration").
type Bridge struct {
	// ARP-Path forwards on the discovery layer's per-source table itself.
	Discovery
	cfg     Config
	repairs *bridge.Repairs[uint64] // keyed by packed destination MAC
	proxy   *proxyCache
}

// New creates an ARP-Path bridge.
func New(net *netsim.Network, name string, numID int, cfg Config) *Bridge {
	return NewWithProtocol(net, name, numID, cfg, nil)
}

// NewWithProtocol creates an ARP-Path bridge whose chassis dispatches
// frames to proto instead of the bridge itself. This is the extension
// seam for All-Path variants that refine ARP-Path rather than replace it
// (TCP-Path handles TCP segments itself and hands everything else to the
// embedded ARP-Path dataplane): proto typically embeds the returned
// *Bridge and delegates the frames it does not consume to its OnFrame.
// proto may be nil (plain ARP-Path); it may also still be partially
// constructed at call time — the chassis only invokes it once traffic
// flows.
func NewWithProtocol(net *netsim.Network, name string, numID int, cfg Config, proto bridge.Protocol) *Bridge {
	if err := cfg.Check(); err != nil {
		panic("core: " + err.Error())
	}
	bound, _ := tables.ParseConfig(cfg.TableCapacity, cfg.TablePolicy) // Check vetted it
	b := &Bridge{cfg: cfg}
	if proto == nil {
		proto = b
	}
	b.Discovery.Init(net, name, numID, proto, cfg.LockTimeout.D(), LearnedTimeout, bound)
	b.repairs = bridge.NewRepairs[uint64](&b.Chassis, RepairTimeout, RepairBuffer, &b.stats.RepairDropped)
	if cfg.Proxy {
		b.proxy = newProxyCache(ProxyTimeout)
	}
	return b
}

// Table exposes the locking table; experiments use it to reconstruct
// locked paths (Figure 1) and to measure table sizes.
func (b *Bridge) Table() *LockTable { return &b.hosts }

// PathTables lists the bridge's path tables behind the key-independent
// view the harnesses count and sweep; index 0 is the table the capacity
// bound applies to (variants put their pair or connection table there).
func (b *Bridge) PathTables() []tables.View { return []tables.View{&b.hosts} }

// Restart models a bridge power-cycle with total table loss: every
// outstanding repair is abandoned (buffered frames released — the
// refcounts must balance even across a crash), the proxy cache is emptied,
// and Discovery.PowerCycle does the rest.
func (b *Bridge) Restart() {
	b.repairs.Abandon()
	if b.proxy != nil {
		b.proxy = newProxyCache(ProxyTimeout)
	}
	b.PowerCycle()
}

// OnFrame implements bridge.Protocol: the ARP-Path dataplane (§2.1). The
// frame arrives with its view already decoded, so no header is parsed
// here or anywhere below — the whole forwarding decision runs on the
// flat FrameView fields.
//
//fabric:hotpath
func (b *Bridge) OnFrame(in *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if v.IsMulticast() {
		b.handleBroadcast(in, f, v)
		return
	}
	b.handleUnicast(in, f, v)
}

// handleBroadcast implements §2.1.1's locking race and §2.1.3's loop-free
// flooding.
//
//fabric:hotpath
func (b *Bridge) handleBroadcast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := b.Now()
	if !b.Flooded(in, v, now) {
		return
	}

	// ARP Proxy interception (before flooding).
	if b.proxy != nil && v.HasARP {
		if b.proxyHandleBroadcast(in, v, now) {
			return
		}
	}

	// If this is a PathRequest for a host attached to one of our edge
	// ports, answer with a PathReply on the destination's behalf — and
	// release any frames we were buffering for it ourselves.
	if v.HasCtl {
		if edge := b.Answer(in, v, now); edge != nil {
			b.Completed(b.repairs.Release(v.Ctl.Dst.Uint64(), edge))
			return
		}
	}

	b.Relay(in, f)
}

// handleUnicast implements §2.1.2 (reply confirmation), §2.1.3 (path
// forwarding) and the §2.1.4 repair trigger.
//
//fabric:hotpath
func (b *Bridge) handleUnicast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := b.Now()
	src, dst := v.SrcKey, v.DstKey
	establishing := v.ConfirmsPath()

	// PathFail is control traffic for the bridges themselves.
	if v.EtherType == layers.EtherTypePathCtl && !establishing {
		b.handlePathFail(in, f, v, now)
		return
	}

	// Source side: maintain the reverse half of the symmetric path.
	if ref, e, ok := b.hosts.Find(src, now); ok {
		switch {
		case e.Port == in:
			if establishing {
				// Reply confirms the sender's position: lock → learned.
				if e.State == StateLocked {
					b.stats.PathsConfirmed++
				}
				b.hosts.LearnKey(src, in, now)
			} else {
				b.hosts.RefreshAt(ref, now)
			}
		case e.Guarded(now):
			// The sender's position is still race-locked elsewhere:
			// discard the duplicate from the slower path (§2.1.1).
			b.stats.SrcPortDrop++
			return
		case establishing:
			// A reply on a new port re-establishes the path (repair).
			b.hosts.LearnKey(src, in, now)
		default:
			// Data violating the symmetric path outside any race window.
			// This used to be a silent discard — and a silent discard is
			// exactly the stale-ARP blackhole the scenario engine surfaced
			// (DESIGN.md §7 finding 2): a host with a warm ARP cache whose
			// position was moved by a later flood keeps sending along the
			// old path, every frame dies here, and nothing ever repairs.
			// The frame still must not be forwarded (that is the loop
			// protection, unweakened), but a persistent violation on a
			// non-guarded entry is evidence the source's path is stale:
			// buffer the frame and trigger repair toward the source — the
			// PathFail/PathRequest/PathReply exchange re-locks the
			// source's position and the buffered frames are released along
			// the confirmed path. Guarded entries above stay pure drops:
			// inside the race window a wrong-port copy is the §2.1.1
			// filter working as designed.
			b.stats.SrcPortDrop++
			if b.startRepair(f, v, now) {
				b.stats.SrcViolRepairs++
			}
			return
		}
	} else {
		// Unknown source: learn it so the reverse path stays alive.
		b.hosts.LearnKey(src, in, now)
	}

	// Proxy snooping of unicast ARP replies.
	if b.proxy != nil && v.HasARP {
		b.proxy.learn(v.ARP.SenderIP, v.ARP.SenderHW, now)
	}

	// A PathReply releases frames that were buffered awaiting this path.
	if v.HasCtl && establishing {
		b.Completed(b.repairs.Release(src, in))
	}

	// Destination side.
	ref, e, ok := b.hosts.Find(dst, now)
	switch {
	case !ok:
		// Table miss: the entry expired or a link/bridge failed (§2.1.4).
		// Never flood unknown unicast — without a spanning tree that loops.
		b.startRepair(f, v, now)
	case e.Port == in || b.SameNeighbor(e.Port, in):
		// Hairpin: the frame would go back where it came from — including
		// over a parallel link to the same neighbouring bridge, which a
		// port comparison alone cannot see on multigraphs.
		b.stats.HairpinDrop++
	default:
		if establishing {
			if e.State == StateLocked {
				b.stats.PathsConfirmed++
			}
			b.hosts.LearnKey(dst, e.Port, now)
		} else {
			b.hosts.RefreshAt(ref, now)
		}
		b.stats.Forwarded++
		e.Port.SendFrame(f)
	}
}

// EntryFor reports the port and state the bridge currently binds mac to.
func (b *Bridge) EntryFor(mac layers.MAC) (Entry, bool) {
	return b.hosts.Get(mac, b.Now())
}

// NextHop returns the port frames src→dst leave on (the scenario checker's
// walk primitive): here dst's entry alone decides.
func (b *Bridge) NextHop(_, dst layers.MAC, now time.Duration) (*netsim.Port, bool) {
	e, ok := b.hosts.Get(dst, now)
	return e.Port, ok
}

var _ bridge.Protocol = (*Bridge)(nil)
var _ netsim.Node = (*Bridge)(nil)

// PendingRepairs returns the number of outstanding repairs (tests).
func (b *Bridge) PendingRepairs() int { return b.repairs.Len() }
