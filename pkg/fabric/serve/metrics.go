package serve

// The live observability surface: the info/stats wire replies and the
// /metrics text exposition. Everything here renders from driver context
// with the fabric paused at a boundary, so a scrape is a consistent
// snapshot — no torn counters, no mid-window table states.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/pkg/fabric"

	"repro/internal/metrics"
)

func (s *Server) info() *Info {
	mobile := make([]string, 0, 4)
	for _, i := range s.index.Mobile {
		mobile = append(mobile, s.index.Hosts[i])
	}
	return &Info{
		Protocol: s.spec.Protocol.Name,
		Shards:   s.spec.Shards,
		Quantum:  fabric.Duration(s.quantum),
		Hosts:    s.index.Hosts,
		Links:    s.index.Links,
		Bridges:  s.index.Bridges,
		Mobile:   mobile,
	}
}

func (s *Server) stats() *Stats {
	entries, evictions := s.tableStats()
	burstDelivered := 0
	for _, sk := range s.sinks {
		burstDelivered += sk.Count()
	}
	active := 0
	for _, fl := range s.pending {
		if !fl.done {
			active++
		}
	}
	cs := s.built.CoordStats()
	return &Stats{
		At:             fabric.Duration(s.built.Now()),
		WallSeconds:    time.Since(s.wallStart).Seconds(),
		Events:         s.fp.Events(),
		Delivered:      s.delivered,
		DeliveredBytes: s.deliveredBytes,
		LiveFrames:     s.built.LiveFrames(),
		OpsApplied:     s.seq,
		FlowsActive:    active,
		BurstOffered:   s.burstOffered,
		BurstDelivered: burstDelivered,
		TableEntries:   entries,
		TableEvictions: evictions,
		Windows:        cs.Windows,
		Barriers:       cs.Barriers,
		Exchanged:      cs.Exchanged,
		Classes:        s.classStats(),
	}
}

// renderMetrics emits the text exposition format: untyped gauges and
// counters, one metric per line, labels sorted. Latency classes export
// nearest-rank quantile gauges plus a cumulative le-bucket series
// straight from the log-linear histogram.
func (s *Server) renderMetrics() string {
	st := s.stats()
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("# fabricserve text exposition; virtual time in seconds\n")
	w("fabricserve_virtual_seconds %s\n", fsec(st.At.D()))
	w("fabricserve_wall_seconds %.3f\n", st.WallSeconds)
	w("fabricserve_shards %d\n", s.spec.Shards)
	w("fabricserve_events_total %d\n", st.Events)
	w("fabricserve_frames_delivered_total %d\n", st.Delivered)
	w("fabricserve_bytes_delivered_total %d\n", st.DeliveredBytes)
	w("fabricserve_frames_live %d\n", st.LiveFrames)
	w("fabricserve_flows_active %d\n", st.FlowsActive)
	w("fabricserve_burst_offered_total %d\n", st.BurstOffered)
	w("fabricserve_burst_delivered_total %d\n", st.BurstDelivered)
	w("fabricserve_table_entries %d\n", st.TableEntries)
	w("fabricserve_table_evictions_total %d\n", st.TableEvictions)
	w("fabricserve_coord_windows_total %d\n", st.Windows)
	w("fabricserve_coord_barriers_total %d\n", st.Barriers)
	w("fabricserve_coord_exchanged_total %d\n", st.Exchanged)

	ops := make([]string, 0, len(s.opCounts))
	for op := range s.opCounts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		w("fabricserve_ops_total{op=%q} %d\n", op, s.opCounts[op])
	}

	for _, name := range sortedClassNames(st.Classes) {
		cs := st.Classes[name]
		w("fabricserve_class_probes_total{class=%q} %d\n", name, cs.Count)
		w("fabricserve_class_lost_total{class=%q} %d\n", name, cs.Lost)
		if cs.Count == 0 {
			continue
		}
		for _, q := range []struct {
			p string
			v fabric.Duration
		}{{"0.5", cs.P50}, {"0.9", cs.P90}, {"0.99", cs.P99}} {
			w("fabricserve_class_latency_seconds{class=%q,quantile=%q} %s\n", name, q.p, fsec(q.v.D()))
		}
		agg := s.classes[name]
		var cum uint64
		agg.hist.EachBucket(func(_, hi time.Duration, count uint64) {
			cum += count
			w("fabricserve_class_latency_bucket{class=%q,le=%q} %d\n", name, fsec(hi), cum)
		})
		w("fabricserve_class_latency_bucket{class=%q,le=\"+Inf\"} %d\n", name, cum)
	}

	// Per-flow quantiles for completed probe flows still resident in the
	// bounded list; dropped flows survive only in their class series. The
	// quantiles are the histogram's (bucketed like the class lines), read
	// from one scratch histogram refilled per flow.
	hist := metrics.NewHistogram()
	for _, fl := range s.flows {
		if !fl.done || len(fl.rtts) == 0 {
			continue
		}
		*hist = metrics.Histogram{}
		for _, rtt := range fl.rtts {
			hist.Record(rtt)
		}
		w("fabricserve_flow_latency_seconds{flow=\"%d:%s\",class=%q,quantile=\"0.5\"} %s\n",
			fl.id, fl.label, fl.class, fsec(hist.Percentile(50)))
		w("fabricserve_flow_latency_seconds{flow=\"%d:%s\",class=%q,quantile=\"0.99\"} %s\n",
			fl.id, fl.label, fl.class, fsec(hist.Percentile(99)))
	}
	if s.flowsDropped > 0 {
		w("fabricserve_flows_dropped_total %d\n", s.flowsDropped)
	}
	return b.String()
}

// fsec formats a duration as seconds with nanosecond precision and no
// trailing zeros beyond what the value needs.
func fsec(d time.Duration) string {
	s := fmt.Sprintf("%.9f", d.Seconds())
	s = strings.TrimRight(s, "0")
	if strings.HasSuffix(s, ".") {
		s += "0"
	}
	return s
}
