package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/terminal"
)

// benchClient drives one core.Client the way mosh-client does: every call
// that can change what the user sees is followed by a repaint (Display +
// terminal.NewFrame against the previous display), and each new server
// state is read back to learn which keystrokes it answers.
type benchClient struct {
	id     uint64
	c      *core.Client
	script *Script
	h      int
	shown  *terminal.Framebuffer
	next   int // next script step to type
	// pending keystrokes, oldest first, not yet shown to the user.
	pending []pendKey
	lastNum uint64
	m       *meter
	log     *spanLog
	// virtual marks a client on simulated time (mobile): latencies there
	// add the host time of the client call that showed the keystroke.
	virtual bool
}

type pendKey struct {
	seq  uint64
	due  time.Time
	step int
	// own is the host time of the keystroke's own UserBytes + repaint,
	// which is what a prediction shown on the spot costs the user.
	own time.Duration
}

// meter accumulates one run's user-visible results.
type meter struct {
	echo, burst []float64 // ms
	// echoAt and burstAt are the due times (unix ns, on the client's
	// clock) of the samples in echo and burst.
	echoAt, burstAt []int64
	// echoVirt and burstVirt are mobile's latencies on simulated time
	// alone: protocol-visible, so they repeat exactly for a seed.
	echoVirt, burstVirt []float64
	late                []float64 // generator lateness, ms
	instant             int       // echoes shown within 5 ms
	mispredicts         int       // displayed predictions proved wrong
	typed               int
	resolved            int
	paintBytes          int // bytes repainted: what a terminal would be sent
}

func (m *meter) merge(o *meter) {
	m.echo = append(m.echo, o.echo...)
	m.burst = append(m.burst, o.burst...)
	m.echoAt = append(m.echoAt, o.echoAt...)
	m.burstAt = append(m.burstAt, o.burstAt...)
	m.echoVirt = append(m.echoVirt, o.echoVirt...)
	m.burstVirt = append(m.burstVirt, o.burstVirt...)
	m.late = append(m.late, o.late...)
	m.instant += o.instant
	m.mispredicts += o.mispredicts
	m.typed += o.typed
	m.resolved += o.resolved
	m.paintBytes += o.paintBytes
}

// instantLimit is the paper's "instant" echo.
const instantLimit = 5 * time.Millisecond

// typeKey types the next script step, due at due, at time now.
func (b *benchClient) typeKey(now, due time.Time) {
	step := b.next
	b.next++
	t0 := time.Now()
	seq := b.c.InputSeq()
	sp := b.log.begin(spClientType, b.id, seq)
	b.c.UserBytes(b.script.Steps[step].Key)
	b.log.end(sp)
	b.repaint()
	b.pending = append(b.pending, pendKey{seq: seq, due: due, step: step, own: time.Since(t0)})
	b.m.typed++
	b.m.late = append(b.m.late, ms(now.Sub(due)))
}

// receive hands one datagram to the client. at reports the current time
// on the client's clock once the repaint is done.
func (b *benchClient) receive(wire []byte, at func() time.Time) {
	t0 := time.Now()
	sp := b.log.begin(spClientRecv, b.id, 0)
	_ = b.c.Receive(wire, netem.Addr{}) // stale or duplicate datagrams are normal
	b.log.end(sp)
	num := b.c.Transport().RemoteStateNum()
	if num == b.lastNum {
		return
	}
	b.lastNum = num
	b.repaint()
	b.check(at(), time.Since(t0))
}

func (b *benchClient) tick() {
	sp := b.log.begin(spClientTick, b.id, 0)
	b.c.Tick()
	b.log.end(sp)
}

func (b *benchClient) repaint() {
	sp := b.log.begin(spRender, b.id, 0)
	d := b.c.Display()
	if b.shown == nil {
		b.m.paintBytes += len(terminal.NewFrame(false, nil, d))
	} else if !b.shown.Equal(d) {
		b.m.paintBytes += len(terminal.NewFrame(true, b.shown, d))
	}
	b.shown = d
	b.log.end(sp)
}

// statusCounter reads the status row ("k=<n> ...") of the client's copy
// of the server screen: the number of keystrokes the host has answered.
func statusCounter(fb *terminal.Framebuffer, h int) (uint64, bool) {
	row := fb.Text(h - 1)
	if !strings.HasPrefix(row, "k=") {
		return 0, false
	}
	row = row[2:]
	end := 0
	for end < len(row) && row[end] >= '0' && row[end] <= '9' {
		end++
	}
	n, err := strconv.ParseUint(row[:end], 10, 64)
	return n, err == nil
}

// check resolves every pending keystroke the newest server state answers.
// now is the display time on the client's clock; extra is host time to
// add (mobile: the call that displayed it).
func (b *benchClient) check(now time.Time, extra time.Duration) {
	sp := b.log.begin(spCheck, b.id, 0)
	defer b.log.end(sp)
	n, ok := statusCounter(b.c.ServerState(), b.h)
	if !ok {
		return
	}
	i := 0
	for ; i < len(b.pending) && b.pending[i].seq <= n; i++ {
		b.resolve(b.pending[i], now, extra)
	}
	b.pending = append(b.pending[:0], b.pending[i:]...)
}

func (b *benchClient) resolve(pk pendKey, now time.Time, extra time.Duration) {
	step := &b.script.Steps[pk.step]
	virt := now.Sub(pk.due)
	server := virt
	if b.virtual {
		server += extra
	}
	echo, echoVirt := server, virt
	if rec, ok := b.c.Predictions().TakeInputRecord(pk.seq); ok && rec.Displayed {
		switch rec.Outcome {
		case overlay.OutcomeCorrect:
			pv := rec.DisplayedAt.Sub(pk.due)
			if pv < echoVirt {
				echoVirt = pv
			}
			if b.virtual {
				pv += pk.own
			}
			if pv < echo {
				echo = pv
			}
		case overlay.OutcomeIncorrect:
			b.m.mispredicts++
		}
	}
	if step.Echo {
		b.m.echo = append(b.m.echo, ms(echo))
		b.m.echoAt = append(b.m.echoAt, pk.due.UnixNano())
		b.m.echoVirt = append(b.m.echoVirt, ms(echoVirt))
		if echo < instantLimit {
			b.m.instant++
		}
	}
	if step.Burst {
		// No prediction paints a burst: it is on screen when the server
		// state holding its last line is.
		b.m.burst = append(b.m.burst, ms(server))
		b.m.burstAt = append(b.m.burstAt, pk.due.UnixNano())
		b.m.burstVirt = append(b.m.burstVirt, ms(virt))
	}
	b.m.resolved++
}

// screenHash fingerprints the client's copy of the server screen.
func (b *benchClient) screenHash() uint64 { return screenHash(b.c.ServerState()) }
