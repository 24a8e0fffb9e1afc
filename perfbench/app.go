package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/simclock"
	"repro/internal/udpbatch"
)

// replayApp is the benchmark's host application: it waits for each
// scripted keystroke and answers with the prerecorded reply, the way the
// paper's server-side replay process did. Every reply ends with the
// status row, so the n-th input's reply shows "k=n" on the bottom row.
type replayApp struct {
	sess   uint64
	script *Script
	inputs int // inputs received
	bad    int // inputs that were not the scripted keystroke
	total  *atomic.Int64
	probe  *daemonProbe
}

func (a *replayApp) Start() []byte { return a.script.Start }

func (a *replayApp) Input(data []byte) ([]byte, time.Duration) {
	var t0 time.Time
	if a.probe != nil {
		t0 = a.probe.inputStart(a.sess)
	}
	i := a.inputs
	a.inputs++
	a.total.Add(1)
	var out []byte
	var delay time.Duration
	if i < len(a.script.Steps) && bytes.Equal(data, a.script.Steps[i].Key) {
		out, delay = a.script.Steps[i].Resp, a.script.Steps[i].Delay
	} else {
		a.bad++
	}
	if a.probe != nil {
		a.probe.inputEnd(a.sess, uint64(a.inputs), t0)
	}
	return out, delay
}

// daemonProbe is the traced run's view of the daemon, taken entirely from
// outside it: spans and counts in the udpbatch.Conn wrapper handed to
// ServeBatch (or around HandleBatch and the Send hook in mobile), the
// host applications, and Config.OnEcho. Ingress, egress and echo times
// read clock (virtual in mobile); spans always read the wall clock.
type daemonProbe struct {
	log   *spanLog
	clock simclock.Clock

	// Per session ID: when the newest read batch holding one of its
	// datagrams returned, and when an input returned that no datagram of
	// the session has yet followed (both ns on clock; 0 = none).
	lastRead, pendingEgress []atomic.Int64

	mu                    sync.Mutex
	ingress, egress, echo []float64 // ms

	readCalls, readMsgs, writeCalls, writeMsgs atomic.Int64
	writeBusy, dispatchBusy                    atomic.Int64 // ns
}

// newDaemonProbe builds a probe; cpuClock is newSpanLog's.
func newDaemonProbe(sessions int, clock simclock.Clock, cpuClock bool) *daemonProbe {
	return &daemonProbe{
		log:           newSpanLog(cpuClock),
		clock:         clock,
		lastRead:      make([]atomic.Int64, sessions+1),
		pendingEgress: make([]atomic.Int64, sessions+1),
	}
}

func (p *daemonProbe) sample(dst *[]float64, v float64) {
	p.mu.Lock()
	*dst = append(*dst, v)
	p.mu.Unlock()
}

func (p *daemonProbe) inputStart(sess uint64) time.Time {
	if sess < uint64(len(p.lastRead)) {
		if at := p.lastRead[sess].Load(); at != 0 {
			p.sample(&p.ingress, ms(time.Duration(p.clock.Now().UnixNano()-at)))
		}
	}
	return time.Now()
}

func (p *daemonProbe) inputEnd(sess, idx uint64, t0 time.Time) {
	p.log.add(spHostInput, sess, idx, t0, time.Now())
	if sess < uint64(len(p.pendingEgress)) {
		p.pendingEgress[sess].CompareAndSwap(0, p.clock.Now().UnixNano())
	}
}

func (p *daemonProbe) onEcho(_ uint64, latency, _ time.Duration) { p.sample(&p.echo, ms(latency)) }

// noteRead records that a batch holding msgs was read now.
func (p *daemonProbe) noteRead(msgs []udpbatch.Message) {
	now := p.clock.Now().UnixNano()
	for i := range msgs {
		if id, _, err := network.ParseEnvelope(msgs[i].Buf); err == nil && id < uint64(len(p.lastRead)) {
			p.lastRead[id].Store(now)
		}
	}
}

// noteWrite records that a datagram of wire's session is leaving now.
func (p *daemonProbe) noteWrite(wire []byte) {
	id, _, err := network.ParseEnvelope(wire)
	if err != nil || id >= uint64(len(p.pendingEgress)) {
		return
	}
	if at := p.pendingEgress[id].Swap(0); at != 0 {
		p.sample(&p.egress, ms(time.Duration(p.clock.Now().UnixNano()-at)))
	}
}

// probeConn wraps the daemon's udpbatch.Conn for the traced run. It
// forwards the optional refinements sessiond looks for (slot sizing,
// provider name, Close) so the daemon behaves as on the bare provider.
type probeConn struct {
	inner     udpbatch.Conn
	p         *daemonProbe
	lastRead  time.Time // reader goroutine only
	haveFirst bool
}

func (c *probeConn) ReadBatch(msgs []udpbatch.Message) (int, error) {
	if c.haveFirst {
		// Everything the reader did since the previous read returned:
		// demultiplexing and handing runs to the session workers.
		now := time.Now()
		c.p.dispatchBusy.Add(int64(now.Sub(c.lastRead)))
		c.p.log.add(spDispatch, 0, 0, c.lastRead, now)
	}
	n, err := c.inner.ReadBatch(msgs)
	c.lastRead = time.Now()
	c.haveFirst = n > 0
	if n > 0 {
		c.p.readCalls.Add(1)
		c.p.readMsgs.Add(int64(n))
		c.p.noteRead(msgs[:n])
	}
	return n, err
}

func (c *probeConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	t0 := time.Now()
	n, err := c.inner.WriteBatch(msgs)
	t1 := time.Now()
	c.p.writeBusy.Add(int64(t1.Sub(t0)))
	c.p.log.add(spBatchWrite, 0, 0, t0, t1)
	c.p.writeCalls.Add(1)
	done := n
	if err != nil && done < len(msgs) {
		done++ // msgs[n] was consumed (dropped) too
	}
	c.p.writeMsgs.Add(int64(done))
	for i := 0; i < done; i++ {
		c.p.noteWrite(msgs[i].Buf)
	}
	return n, err
}

func (c *probeConn) BatchCap() int        { return c.inner.BatchCap() }
func (c *probeConn) ReadSlotSize() int    { return udpbatch.ReadSlotSize(c.inner, 0) }
func (c *probeConn) ProviderName() string { return udpbatch.ProviderName(c.inner) }

func (c *probeConn) Close() error {
	if cl, ok := c.inner.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}
