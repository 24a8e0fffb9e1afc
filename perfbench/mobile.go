package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/sessiond"
	"repro/internal/simclock"
	"repro/internal/udpbatch"
)

// The mobile workload: six users replay their traces through one sessiond
// daemon in deterministic virtual time. The harness drives the daemon
// with HandleBatch and its own TickDue/NextDeadline pump, and each user
// reaches it over an emulated EV-DO-like path of its own (netem). No
// sockets are involved; every protocol-visible number repeats exactly for
// a seed. Changing netem or simclock changes this workload.

var mobileEpoch = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// proto is a replay's protocol-visible outcome: everything but host CPU
// time and memory, so two replays of one seed must agree on all of it.
type proto struct {
	EchoVirt, BurstVirt  []float64
	Datagrams, WireBytes int64
	Mispredicts          int
	Overlay              overlay.Stats
	ServerSender         [4]int64 // instructions, empty acks, fragments, diff bytes
	ClientSender         [4]int64
	Drops, Auth          int64
	Hashes               []uint64
	Ingress, Egress      []float64
	Echo                 []float64
}

// replay is one mobile replay's results.
type replay struct {
	proto
	m         meter
	setup     time.Duration
	cpu       time.Duration // process CPU after set-up
	daemonCPU time.Duration // thread CPU time inside HandleBatch and TickDue
	resident  int
	queued    []float64
	outstand  []float64
	spans     spanSummary
	inputs    int64
	log       *spanLog      // traced: this replay's spans
	virtual   time.Duration // simulated time the keystrokes and drain took
}

// mobileReplay runs every user's trace once (keys keystrokes each). It
// runs on the calling goroutine, locked to its thread, so the thread's
// CPU clock measures the daemon's share.
func mobileReplay(seed int64, keys int, traced bool) (*replay, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	spec, err := specFor("mobile")
	if err != nil {
		return nil, err
	}
	scripts := buildScripts(spec, seed, 0, keys)
	r := &replay{}
	t0 := time.Now()
	sched := simclock.NewScheduler(mobileEpoch)
	nw := netem.NewNetwork(sched)
	var log *spanLog
	var probe *daemonProbe
	if traced {
		probe = newDaemonProbe(len(scripts), sched, true)
		log = probe.log
	}
	serverAddr := netem.Addr{Host: 1, Port: 60001}
	paths := map[uint32]*netem.Path{}
	var inputs atomic.Int64
	apps := make([]*replayApp, len(scripts))
	cfg := sessiond.Config{
		Clock:       sched,
		IdleTimeout: -1,
		Width:       spec.Width,
		Height:      spec.Height,
		NewApp: func(id uint64) host.App {
			apps[id-1] = &replayApp{sess: id, script: scripts[id-1], total: &inputs, probe: probe}
			return apps[id-1]
		},
		Send: func(dst netem.Addr, wire []byte) {
			r.Datagrams++
			r.WireBytes += int64(len(wire))
			if probe != nil {
				probe.noteWrite(wire)
			}
			if p := paths[dst.Host]; p != nil {
				sp := log.begin(spNetem, 0, 0)
				p.Down.Send(netem.Packet{Src: serverAddr, Dst: dst, Payload: wire})
				log.end(sp)
			}
		},
	}
	if traced {
		cfg.OnEcho = probe.onEcho
	}
	d, err := sessiond.New(cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()

	var pump *simclock.EventTimer
	rearmDaemon := func() {
		if at, ok := d.NextDeadline(); ok {
			pump.Reset(at)
		}
	}
	pump = sched.NewEventTimer(func() {
		t := threadCPU()
		sp := log.begin(spTickDue, 0, 0)
		d.TickDue()
		log.end(sp)
		r.daemonCPU += threadCPU() - t
		rearmDaemon()
	})
	var msgs []udpbatch.Message
	netem.NewBatchSink(nw, serverAddr, func(pkts []netem.Packet) {
		msgs = msgs[:0]
		for _, p := range pkts {
			msgs = append(msgs, udpbatch.Message{Buf: p.Payload, Addr: p.Src})
		}
		if probe != nil {
			probe.noteRead(msgs)
		}
		t := threadCPU()
		sp := log.begin(spHandleBatch, 0, 0)
		d.HandleBatch(msgs)
		log.end(sp)
		r.daemonCPU += threadCPU() - t
		rearmDaemon()
	})

	clients := make([]*benchClient, len(scripts))
	rearms := make([]func(), len(scripts))
	for i := range scripts {
		s, err := d.OpenSession()
		if err != nil {
			return nil, err
		}
		addr := netem.Addr{Host: uint32(100 + i), Port: 5000}
		path := netem.NewPath(nw, mobilePath(sessionRand(seed, i, 0x5eed)), seed*31+int64(i))
		paths[addr.Host] = path
		b := &benchClient{id: s.ID, script: scripts[i], h: spec.Height, m: &r.m, log: log, virtual: true}
		b.c, err = core.NewClient(core.ClientConfig{
			Key:         s.Key(),
			Clock:       sched,
			Width:       spec.Width,
			Height:      spec.Height,
			Predictions: overlay.Adaptive,
			Envelope:    &network.Envelope{ID: s.ID},
			Emit: func(wire []byte) {
				r.Datagrams++
				r.WireBytes += int64(len(wire))
				sp := log.begin(spNetem, 0, 0)
				path.Up.Send(netem.Packet{Src: addr, Dst: serverAddr, Payload: wire})
				log.end(sp)
			},
		})
		if err != nil {
			return nil, err
		}
		clients[i] = b
		var timer *simclock.EventTimer
		rearm := func() {
			wait := b.c.WaitTime()
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			timer.Reset(sched.Now().Add(wait))
		}
		timer = sched.NewEventTimer(func() {
			b.tick()
			rearm()
		})
		nw.Attach(addr, func(p netem.Packet) {
			b.receive(p.Payload, sched.Now)
			rearm()
		})
		sched.AfterFunc(0, func() {
			b.tick()
			rearm()
		})
		rearms[i] = rearm
	}
	rearmDaemon()
	for !everyClient(clients, func(b *benchClient) bool { return b.c.Transport().RemoteStateNum() > 0 }) {
		if !sched.Step() {
			return nil, errors.New("mobile: set-up stalled before every client held a server state")
		}
	}
	r.setup = time.Since(t0)

	r.Datagrams, r.WireBytes = 0, 0
	cpu0 := cpuNow()
	measured := time.Now()
	start := sched.Now()
	last := start
	for i, b := range clients {
		at := start
		for _, st := range scripts[i].Steps {
			at = at.Add(st.Gap)
			due, b, rearm := at, b, rearms[i]
			sched.At(due, func() {
				b.typeKey(sched.Now(), due)
				rearm()
			})
		}
		if at.After(last) {
			last = at
		}
	}
	if traced {
		var sample func()
		sample = func() {
			ts := d.TransportStats()
			r.queued = append(r.queued, float64(ts.QueuedPackets))
			r.outstand = append(r.outstand, float64(ts.OutstandingStates))
			if sched.Now().Before(last) {
				sched.AfterFunc(100*time.Millisecond, sample)
			}
		}
		sched.AfterFunc(100*time.Millisecond, sample)
	}
	sched.RunUntil(last)
	// Drain: every keystroke shown, then a few seconds more so the last
	// acknowledgements settle.
	for limit := last.Add(2 * time.Minute); sched.Now().Before(limit); {
		if everyClient(clients, func(b *benchClient) bool { return len(b.pending) == 0 }) {
			break
		}
		sched.RunFor(time.Second)
	}
	sched.RunFor(5 * time.Second)
	r.cpu = cpuNow() - cpu0
	r.virtual = sched.Now().Sub(start)

	// Output checks: converged screens, exactly the scripted inputs.
	var errs []error
	for i, b := range clients {
		s := d.Lookup(b.id)
		if s == nil {
			errs = append(errs, fmt.Errorf("session %d: gone from the daemon", b.id))
			continue
		}
		var hash uint64
		var st [4]int64
		s.Do(func(srv *core.Server) {
			hash = screenHash(srv.Terminal().Framebuffer())
			ss := srv.Transport().Sender().Stats()
			st = [4]int64{int64(ss.Instructions), int64(ss.EmptyAcks), int64(ss.Fragments), ss.DiffBytes}
		})
		for k := range st {
			r.ServerSender[k] += st[k]
		}
		cs := b.c.Transport().Sender().Stats()
		r.ClientSender[0] += int64(cs.Instructions)
		r.ClientSender[1] += int64(cs.EmptyAcks)
		r.ClientSender[2] += int64(cs.Fragments)
		r.ClientSender[3] += cs.DiffBytes
		addOverlay(&r.Overlay, b.c.Predictions().Stats())
		r.Hashes = append(r.Hashes, hash)
		a := apps[i]
		switch {
		case len(b.pending) > 0:
			errs = append(errs, fmt.Errorf("session %d: mobile did not converge: %d keystrokes never shown", b.id, len(b.pending)))
		case a.bad > 0 || a.inputs != b.next:
			errs = append(errs, fmt.Errorf("session %d: host got %d inputs (%d unscripted), client typed %d", b.id, a.inputs, a.bad, b.next))
		case hash != b.screenHash():
			errs = append(errs, fmt.Errorf("session %d: mobile did not converge: client screen differs from the daemon's", b.id))
		}
	}
	m := d.Metrics()
	r.Drops = m.DropsQueueFull.Value() + m.DropsEgressFull.Value() + m.ShedEvents.Value()
	r.Auth = m.DropsAuth.Value()
	r.resident = d.ScreenStateStats().ResidentBytesPerSession()
	r.inputs = inputs.Load()
	r.Mispredicts = r.m.mispredicts
	r.EchoVirt = sortedCopy(r.m.echoVirt)
	r.BurstVirt = sortedCopy(r.m.burstVirt)
	if probe != nil {
		r.Ingress, r.Egress, r.Echo = sortedCopy(probe.ingress), sortedCopy(probe.egress), sortedCopy(probe.echo)
		r.spans = log.summarize(measured.UnixNano())
		r.log = log
	}
	return r, errors.Join(errs...)
}

func everyClient(cs []*benchClient, f func(*benchClient) bool) bool {
	for _, b := range cs {
		if !f(b) {
			return false
		}
	}
	return true
}

func addOverlay(dst *overlay.Stats, s overlay.Stats) {
	dst.InputEvents += s.InputEvents
	dst.Predicted += s.Predicted
	dst.ShownImmediately += s.ShownImmediately
	dst.Correct += s.Correct
	dst.Incorrect += s.Incorrect
	dst.NoCredit += s.NoCredit
	dst.EpochsKilled += s.EpochsKilled
}
