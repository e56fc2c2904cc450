package topo

import (
	"repro/internal/netsim"
)

// This file implements the topology-aware graph partitioner behind
// Options.Shards: it cuts the bridge graph into k balanced, connected-ish
// regions so the sharded engine (netsim.Partition, DESIGN.md §8) gets few
// boundary links — every cut trunk costs a frame clone per crossing and
// bounds the synchronization window by its latency. Hosts always follow
// their edge bridge, so host access links are never cut.
//
// The algorithm is deliberately simple and fully deterministic (iteration
// in registration/creation order only): k seed bridges chosen
// farthest-first by hop distance, then balanced multi-source BFS growth
// with a per-shard capacity of ceil(bridges/k).

// PartitionAssign computes a shard assignment (node name → shard) for a
// built, not-yet-started fabric. It is exported for the scenario engine
// and tests; topology users normally just set Options.Shards and let
// Builder.Build apply it. k is clamped to the bridge count; the returned
// assignment covers every registered node.
func PartitionAssign(n *Net, k int) map[string]int {
	nb := len(n.Bridges)
	if k > nb {
		k = nb
	}
	idx := make(map[string]int, nb)
	for i, b := range n.Bridges {
		idx[b.Name()] = i
	}
	adj := make([][]int, nb)
	for _, l := range n.Network.Links() {
		a, ok1 := idx[l.A().Node().Name()]
		b, ok2 := idx[l.B().Node().Name()]
		if ok1 && ok2 && a != b {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}

	// Farthest-first seeds: spread the growth origins across the graph.
	seeds := []int{0}
	for len(seeds) < k {
		dist := bfsDistances(adj, seeds)
		far, fd := -1, -1
		for i, d := range dist {
			if !contains(seeds, i) && d > fd {
				far, fd = i, d
			}
		}
		if far < 0 {
			break
		}
		seeds = append(seeds, far)
	}
	k = len(seeds)

	// Balanced multi-source BFS: shards claim one bridge per round-robin
	// turn until their capacity fills; stranded bridges (everything
	// reachable already claimed) go to the smallest shard.
	shard := make([]int, nb)
	for i := range shard {
		shard[i] = -1
	}
	capacity := (nb + k - 1) / k
	count := make([]int, k)
	queues := make([][]int, k)
	for s, b := range seeds {
		shard[b] = s
		count[s] = 1
		queues[s] = append(queues[s], b)
	}
	assigned := k
	for assigned < nb {
		progress := false
		for s := 0; s < k && assigned < nb; s++ {
			if count[s] >= capacity {
				continue
			}
			for len(queues[s]) > 0 {
				cur := queues[s][0]
				queues[s] = queues[s][1:]
				claimed := false
				for _, nb2 := range adj[cur] {
					if shard[nb2] != -1 {
						continue
					}
					shard[nb2] = s
					count[s]++
					assigned++
					queues[s] = append(queues[s], cur, nb2) // revisit cur for its other neighbours
					claimed = true
					break
				}
				if claimed {
					progress = true
					break
				}
			}
		}
		if !progress {
			// Remaining bridges are walled off by full shards (or in
			// another component): put each on the currently smallest shard.
			for i := range shard {
				if shard[i] != -1 {
					continue
				}
				small := 0
				for s := 1; s < k; s++ {
					if count[s] < count[small] {
						small = s
					}
				}
				shard[i] = small
				count[small]++
				assigned++
			}
		}
	}

	assign := make(map[string]int, len(n.Network.Nodes()))
	for name, i := range idx {
		assign[name] = shard[i]
	}
	// Non-bridge nodes (hosts) follow the first bridge they are cabled to.
	for _, node := range n.Network.Nodes() {
		if _, isBridge := idx[node.Name()]; isBridge {
			continue
		}
		s := 0
		for _, l := range n.Network.Links() {
			var peer netsim.Node
			switch node {
			case l.A().Node():
				peer = l.B().Node()
			case l.B().Node():
				peer = l.A().Node()
			default:
				continue
			}
			if bi, ok := idx[peer.Name()]; ok {
				s = shard[bi]
				break
			}
		}
		assign[node.Name()] = s
	}
	return assign
}

// bfsDistances returns hop distances from the seed set (-1 unreachable).
func bfsDistances(adj [][]int, seeds []int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for _, s := range seeds {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if dist[nb] == -1 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
