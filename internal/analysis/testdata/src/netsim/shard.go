package netsim

// startWorkers spawns a worker pool. No file is exempt from the
// goroutine rule, the coordinator's included.
func startWorkers(n int) {
	for i := 0; i < n; i++ {
		go func() {}() // want "goroutine spawned in trace-affecting code"
	}
}
