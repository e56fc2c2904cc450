package flowpath

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// Registry names of the All-Path variants.
const (
	// ProtoFlowPath locks one path per {src, dst} host pair.
	ProtoFlowPath topo.Protocol = "flowpath"
	// ProtoTCPPath locks one path per TCP connection, ARP-Path otherwise.
	ProtoTCPPath topo.Protocol = "tcppath"
)

func init() {
	topo.Register(ProtoFlowPath, topo.Proto[Config]{
		Check:  Config.Check,
		WarmUp: func(Config) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg Config) topo.Bridge {
			return New(net, name, numID, cfg)
		},
	})
	topo.Register(ProtoTCPPath, topo.Proto[TCPConfig]{
		Check:  TCPConfig.Check,
		WarmUp: func(TCPConfig) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg TCPConfig) topo.Bridge {
			return NewTCPPath(net, name, numID, cfg)
		},
	})
}
