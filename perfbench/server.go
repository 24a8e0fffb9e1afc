package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/terminal"
	"repro/internal/udpbatch"
)

// The daemon role: the loopback workloads run the daemon in a process of
// its own, set up like cmd/mosh-server (one UDP socket, the provider the
// "auto" probe picks, every session opened at start) but serving the
// benchmark's seeded applications. It prints one "SESSION <id> <key>"
// line per session and "READY <port> <provider>", then obeys commands on
// stdin, one per line:
//
//	BEGIN  start of the measured window (CPU and counters are deltas from here)
//	END    end of the schedule (bounds the late/early CPU comparison)
//	STATS  print "STATS <json>": counters, per-session screen hashes, spans
//	QUIT   close the daemon, write the span file (traced runs) and exit
//
// End of input also closes it.

type sessionStat struct {
	ID     uint64 `json:"id"`
	Inputs int    `json:"inputs"`
	Bad    int    `json:"bad"`
	Hash   uint64 `json:"hash"`
}

// daemonStats is one STATS answer. Counters are deltas since BEGIN.
type daemonStats struct {
	Provider         string        `json:"provider"`
	CPUNs            int64         `json:"cpu_ns"`
	MaxRSSMB         float64       `json:"maxrss_mb"`
	PacketsIn        int64         `json:"packets_in"`
	PacketsOut       int64         `json:"packets_out"`
	BytesIn          int64         `json:"bytes_in"`
	BytesOut         int64         `json:"bytes_out"`
	Sessions         []sessionStat `json:"sessions"`
	Drops            int64         `json:"drops"`
	AuthFailures     int64         `json:"auth_failures"`
	JournalBytes     int64         `json:"journal_bytes"`
	JournalWriteAmp  float64       `json:"journal_write_amp"`
	ResidentPerSess  int           `json:"resident_bytes_per_session"`
	Instructions     int64         `json:"instructions"`
	EmptyAcks        int64         `json:"empty_acks"`
	Fragments        int64         `json:"fragments"`
	DiffBytes        int64         `json:"diff_bytes"`
	CPULateOverEarly float64       `json:"cpu_late_over_early"`

	// Traced runs only.
	ReadCalls      int64       `json:"read_calls"`
	ReadMsgs       int64       `json:"read_msgs"`
	WriteCalls     int64       `json:"write_calls"`
	WriteMsgs      int64       `json:"write_msgs"`
	WriteBusyNs    int64       `json:"write_busy_ns"`
	DispatchBusyNs int64       `json:"dispatch_busy_ns"`
	Ingress        [2]float64  `json:"ingress_ms"`
	Egress         [2]float64  `json:"egress_ms"`
	Echo           [2]float64  `json:"echo_ms"`
	QueuedP99      float64     `json:"queued_p99"`
	OutstandingP99 float64     `json:"outstanding_p99"`
	Spans          spanSummary `json:"spans"`
}

// counterSnap is the daemon-wide counters at one instant.
type counterSnap struct {
	cpu                                        time.Duration
	pktIn, pktOut, bytesIn, bytesOut, journal  int64
	drops, auth                                int64
	instructions, emptyAcks, fragments, diffBy int64
}

type daemonRole struct {
	d        *sessiond.Daemon
	apps     []*replayApp
	inputs   atomic.Int64
	probe    *daemonProbe
	provider string

	mu       sync.Mutex
	samples  []cpuSample // every 50 ms
	queued   []float64   // traced: sampled TransportStats
	outstand []float64
	begin    counterSnap
	beginAt  time.Time
	endAt    time.Time
}

type cpuSample struct {
	at     time.Time
	cpu    time.Duration
	inputs int64
}

func (r *daemonRole) snap() counterSnap {
	m := r.d.Metrics()
	s := counterSnap{
		cpu:     cpuNow(),
		pktIn:   m.PacketsIn.Value(),
		pktOut:  m.PacketsOut.Value(),
		bytesIn: m.BytesIn.Value(), bytesOut: m.BytesOut.Value(),
		journal: m.JournalBytes.Value(),
		drops:   m.DropsQueueFull.Value() + m.DropsEgressFull.Value() + m.ShedEvents.Value(),
		auth:    m.DropsAuth.Value(),
	}
	for _, sess := range r.d.Sessions() {
		sess.Do(func(srv *core.Server) {
			st := srv.Transport().Sender().Stats()
			s.instructions += int64(st.Instructions)
			s.emptyAcks += int64(st.EmptyAcks)
			s.fragments += int64(st.Fragments)
			s.diffBy += st.DiffBytes
		})
	}
	return s
}

func runDaemon(workload string, seed int64, seconds int, traced bool, stateDir, spanPath string) error {
	spec, err := specFor(workload)
	if err != nil {
		return err
	}
	scripts := buildScripts(spec, seed, scheduleSpan(seconds), 0)
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	bc, err := udpbatch.NewUDPConnProvider(conn, "auto")
	if err != nil {
		return err
	}
	r := &daemonRole{provider: udpbatch.ProviderName(bc)}
	if traced {
		r.probe = newDaemonProbe(len(scripts), simclock.Real{}, false)
		bc = &probeConn{inner: bc, p: r.probe}
	}
	cfg := sessiond.Config{
		Clock:       simclock.Real{},
		Capacity:    len(scripts),
		IdleTimeout: -1,
		Width:       spec.Width,
		Height:      spec.Height,
		RecycleWire: true,
		NewApp: func(id uint64) host.App {
			a := &replayApp{sess: id, script: scripts[id-1], total: &r.inputs, probe: r.probe}
			r.apps = append(r.apps, a)
			return a
		},
	}
	if spec.Persist {
		cfg.StateDir = stateDir
		cfg.JournalInterval = journalInterval
	}
	if traced {
		cfg.OnEcho = r.probe.onEcho
	}
	if r.d, err = sessiond.New(cfg); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	for range scripts {
		s, err := r.d.OpenSession()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "SESSION %d %s\n", s.ID, s.Key().Base64())
	}
	fmt.Fprintf(out, "READY %d %s\n", conn.LocalAddr().(*net.UDPAddr).Port, r.provider)
	if err := out.Flush(); err != nil {
		return err
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- r.d.ServeBatch(bc) }()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.sampleLoop(stop, traced)
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch strings.TrimSpace(in.Text()) {
		case "BEGIN":
			b := r.snap()
			r.mu.Lock()
			r.begin, r.beginAt = b, time.Now()
			r.mu.Unlock()
		case "END":
			r.mu.Lock()
			r.endAt = time.Now()
			r.mu.Unlock()
		case "STATS":
			js, err := json.Marshal(r.stats())
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "STATS %s\n", js)
			if err := out.Flush(); err != nil {
				return err
			}
		case "QUIT":
			return r.quit(serveErr, spanPath)
		}
	}
	return r.quit(serveErr, spanPath)
}

// journalInterval is the periodic journal flush cadence when persistence
// is on: short enough that a run's journal cost shows in its CPU.
const journalInterval = 2 * time.Second

func (r *daemonRole) quit(serveErr chan error, spanPath string) error {
	r.d.Close()
	err := <-serveErr
	if r.probe != nil && spanPath != "" {
		if werr := r.probe.log.writeFile(spanPath); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (r *daemonRole) sampleLoop(stop chan struct{}, traced bool) {
	period := 50 * time.Millisecond
	if traced {
		period = 20 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s := cpuSample{at: now, cpu: cpuNow(), inputs: r.inputs.Load()}
			var ts sessiond.TransportStats
			if traced {
				ts = r.d.TransportStats()
			}
			r.mu.Lock()
			r.samples = append(r.samples, s)
			if traced && !r.beginAt.IsZero() && r.endAt.IsZero() {
				r.queued = append(r.queued, float64(ts.QueuedPackets))
				r.outstand = append(r.outstand, float64(ts.OutstandingStates))
			}
			r.mu.Unlock()
		}
	}
}

// lateOverEarly compares daemon CPU per keystroke in the last tenth of
// the measured window with the first tenth.
func lateOverEarly(samples []cpuSample, from, to time.Time) float64 {
	if from.IsZero() || !to.After(from) {
		return 0
	}
	tenth := to.Sub(from) / 10
	perKey := func(a, b time.Time) float64 {
		var s0, s1 *cpuSample
		for i := range samples {
			if s0 == nil && !samples[i].at.Before(a) {
				s0 = &samples[i]
			}
			if !samples[i].at.After(b) {
				s1 = &samples[i]
			}
		}
		if s0 == nil || s1 == nil || s1.inputs <= s0.inputs {
			return 0
		}
		return float64(s1.cpu-s0.cpu) / float64(s1.inputs-s0.inputs)
	}
	return ratio(perKey(to.Add(-tenth), to), perKey(from, from.Add(tenth)))
}

func (r *daemonRole) stats() daemonStats {
	now := r.snap()
	r.mu.Lock()
	b, beginAt, endAt := r.begin, r.beginAt, r.endAt
	samples := append([]cpuSample(nil), r.samples...)
	queued := append([]float64(nil), r.queued...)
	outstand := append([]float64(nil), r.outstand...)
	r.mu.Unlock()
	if endAt.IsZero() {
		endAt = time.Now()
	}
	m := r.d.Metrics()
	st := daemonStats{
		Provider:         r.provider,
		CPUNs:            int64(now.cpu - b.cpu),
		MaxRSSMB:         maxRSSMB(),
		PacketsIn:        now.pktIn - b.pktIn,
		PacketsOut:       now.pktOut - b.pktOut,
		BytesIn:          now.bytesIn - b.bytesIn,
		BytesOut:         now.bytesOut - b.bytesOut,
		Drops:            now.drops - b.drops,
		AuthFailures:     now.auth - b.auth,
		JournalBytes:     now.journal - b.journal,
		JournalWriteAmp:  m.JournalWriteAmp(),
		ResidentPerSess:  r.d.ScreenStateStats().ResidentBytesPerSession(),
		Instructions:     now.instructions - b.instructions,
		EmptyAcks:        now.emptyAcks - b.emptyAcks,
		Fragments:        now.fragments - b.fragments,
		DiffBytes:        now.diffBy - b.diffBy,
		CPULateOverEarly: lateOverEarly(samples, beginAt, endAt),
	}
	for _, s := range r.d.Sessions() {
		ss := sessionStat{ID: s.ID}
		s.Do(func(srv *core.Server) {
			ss.Hash = screenHash(srv.Terminal().Framebuffer())
			if a := r.apps[s.ID-1]; a != nil {
				ss.Inputs, ss.Bad = a.inputs, a.bad
			}
		})
		st.Sessions = append(st.Sessions, ss)
	}
	if p := r.probe; p != nil {
		st.ReadCalls, st.ReadMsgs = p.readCalls.Load(), p.readMsgs.Load()
		st.WriteCalls, st.WriteMsgs = p.writeCalls.Load(), p.writeMsgs.Load()
		st.WriteBusyNs, st.DispatchBusyNs = p.writeBusy.Load(), p.dispatchBusy.Load()
		p.mu.Lock()
		st.Ingress = [2]float64{median(p.ingress).Value, tail(p.ingress, 0.99).Value}
		st.Egress = [2]float64{median(p.egress).Value, tail(p.egress, 0.99).Value}
		st.Echo = [2]float64{median(p.echo).Value, tail(p.echo, 0.99).Value}
		p.mu.Unlock()
		st.QueuedP99 = tail(queued, 0.99).Value
		st.OutstandingP99 = tail(outstand, 0.99).Value
		st.Spans = p.log.summarize(beginAt.UnixNano())
	}
	return st
}

// screenHash fingerprints what a screen looks like: the bytes that paint
// it from scratch.
func screenHash(fb *terminal.Framebuffer) uint64 {
	h := fnv.New64a()
	h.Write(terminal.NewFrame(false, nil, fb))
	return h.Sum64()
}
