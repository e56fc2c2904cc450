// Package experiments holds the eviction-pressure sweep behind the tables
// kind (pressure.go; bench/perf's churn workload imports it) and the
// scaling run behind the scale kind (scale.go, deleted with sharding).
// The paper's figures and tables are pkg/fabric kinds.
package experiments

import "repro/internal/topo"

// OnNetworkDone is a hook for bench/perf's churn workload: when set, the
// tables sweep invokes it with each network it built, after that
// network's measurements are complete. It is nil (and free) otherwise.
var OnNetworkDone func(n *topo.Built)

// finishNet reports a network the tables sweep is done measuring.
func finishNet(n *topo.Built) {
	if OnNetworkDone != nil {
		OnNetworkDone(n)
	}
}
