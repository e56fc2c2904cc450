package app

import (
	"time"

	"repro/internal/host"
	"repro/internal/metrics"
)

// The client's playback accounting: goodput is sampled in bucket-wide
// bins, and a gap between deliveries longer than stallThreshold counts as
// a playback stall (the visible glitch in the demo's video).
const (
	bucket         = 50 * time.Millisecond
	stallThreshold = 100 * time.Millisecond
)

// StreamConfig describes the Figure 3 video stream.
type StreamConfig struct {
	// Port is the server's listening port (the demo's HTTP server); 0
	// listens on any free port.
	Port uint16
	// Size is the total video size in bytes.
	Size int
}

// DefaultStreamConfig matches the demo scale: an 8 MiB clip over HTTP.
func DefaultStreamConfig() StreamConfig { return StreamConfig{Port: 80, Size: 8 << 20} }

// Stall is one playback interruption observed by the client.
type Stall struct {
	Start    time.Duration // when delivery stopped (virtual time)
	Duration time.Duration // how long until bytes flowed again
}

// StreamReport is the client-side account of one streaming session.
type StreamReport struct {
	Started   time.Duration
	Connected time.Duration
	Finished  time.Duration // zero if the stream never completed
	Received  int
	Complete  bool
	Aborted   bool
	Stalls    []Stall
	// Goodput is delivered bits per second per bucket (the demo's
	// throughput graph).
	Goodput *metrics.Series
	// TotalStall sums all stall durations — the demo's "minimal effect on
	// the streamed video" claim, quantified.
	TotalStall time.Duration
}

// Streamer runs a video streaming session between two hosts.
type Streamer struct {
	cfg    StreamConfig
	report *StreamReport
	onDone func(*StreamReport)

	client   *host.Host
	listener *host.Listener

	lastByteAt  time.Duration
	bucketStart time.Duration
	bucketBits  float64
	finished    bool
}

// StartStream makes server serve cfg.Size bytes on cfg.Port and client
// fetch them, HTTP-style. onDone fires when the stream completes or
// aborts — a dial nobody answers, or a host with no port left, aborts.
// The server accepts one connection and closes its listener as it does,
// so a stream that connected leaves nothing bound; for one that never did,
// see Release. The returned Streamer exposes the live report for
// mid-stream probes.
func StartStream(server, client *host.Host, cfg StreamConfig, onDone func(*StreamReport)) *Streamer {
	if cfg.Size <= 0 {
		panic("app: invalid stream config")
	}
	now := client.Now()
	s := &Streamer{
		cfg:    cfg,
		onDone: onDone,
		client: client,
		report: &StreamReport{
			Started: now,
			Goodput: metrics.NewSeries("goodput", "Mb/s"),
		},
		lastByteAt:  now,
		bucketStart: now,
	}
	s.listener = server.Listen(cfg.Port, func(c *host.Conn) {
		s.listener.Close()
		// Serve the whole "video file"; TCP-lite paces it out.
		c.Write(make([]byte, cfg.Size))
		c.Close()
	})
	var c *host.Conn
	if s.listener != nil {
		c = client.Dial(server.IP(), s.listener.Port(), func(c *host.Conn) {
			s.report.Connected = client.Now()
			s.lastByteAt = s.report.Connected
			c.OnData = s.onData
			c.OnClose = s.onClose
		})
	}
	if c == nil {
		s.Release()
		s.onAbort()
		return s
	}
	c.OnAbort = s.onAbort // from the first SYN: a dial nobody answers gives up through it
	return s
}

// Report returns the live report (final once onDone has fired).
func (s *Streamer) Report() *StreamReport { return s.report }

// Release closes the listener of a stream that never connected (a dial
// nobody answered); otherwise it does nothing. The stream's callbacks run
// on the client, which may sit in another shard than the server, so they
// cannot: call it once onDone has fired, from driver context between runs.
func (s *Streamer) Release() {
	if s.listener != nil {
		s.listener.Close()
	}
}

func (s *Streamer) onData(p []byte) {
	now := s.client.Now()
	if gap := now - s.lastByteAt; gap > stallThreshold {
		s.report.Stalls = append(s.report.Stalls, Stall{Start: s.lastByteAt, Duration: gap})
		s.report.TotalStall += gap
	}
	s.lastByteAt = now
	s.report.Received += len(p)
	// Goodput bucketing.
	for now-s.bucketStart >= bucket {
		s.flushBucket()
	}
	s.bucketBits += float64(len(p) * 8)
}

func (s *Streamer) flushBucket() {
	mbps := s.bucketBits / bucket.Seconds() / 1e6
	s.report.Goodput.Add(s.bucketStart, mbps)
	s.bucketStart += bucket
	s.bucketBits = 0
}

func (s *Streamer) onClose() {
	if s.finished {
		return
	}
	s.finished = true
	s.flushBucket()
	s.report.Finished = s.client.Now()
	s.report.Complete = s.report.Received == s.cfg.Size
	if s.onDone != nil {
		s.onDone(s.report)
	}
}

func (s *Streamer) onAbort() {
	if s.finished {
		return
	}
	s.finished = true
	s.report.Aborted = true
	if s.onDone != nil {
		s.onDone(s.report)
	}
}
