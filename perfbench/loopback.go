package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// The loopback workloads: the daemon runs in a process of its own (the
// daemon role) and this process is the load: one UDP socket and one
// goroutine per available CPU (at most nproc), each driving its share of
// real core.Client endpoints, every session multiplexed over those
// sockets and demultiplexed by network.ParseEnvelope. Keystrokes are open
// loop: each is typed when due whatever the program is doing, and timed
// from when it was due.

// scheduleSpan is how much keystroke schedule a run of seconds needs.
func scheduleSpan(seconds int) time.Duration { return time.Duration(seconds)*time.Second + time.Second }

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// drainLimit bounds the wait for the last echoes after the schedule ends.
const drainLimit = 3 * time.Second

type daemonProc struct {
	cmd      *exec.Cmd
	in       io.WriteCloser
	out      *bufio.Reader
	port     int
	provider string
	ids      []uint64
	keys     []sspcrypto.Key
	stateDir string
}

type runOpts struct {
	workload string
	seed     int64
	seconds  int
	outDir   string
}

func startDaemon(o runOpts, round int, traced bool, spanPath string) (*daemonProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &daemonProc{stateDir: filepath.Join(o.outDir, "run", fmt.Sprintf("%d-%d", os.Getpid(), round))}
	if err := os.MkdirAll(p.stateDir, 0o700); err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	p.cmd = exec.Command(self, "-role", "daemon", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", tr, "-statedir", p.stateDir, "-spans", spanPath)
	p.cmd.Stderr = os.Stderr
	if p.in, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewReaderSize(stdout, 1<<20)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	for {
		line, err := p.out.ReadString('\n')
		if err != nil {
			p.kill()
			return nil, fmt.Errorf("daemon start: %w", err)
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "SESSION":
			id, err1 := strconv.ParseUint(f[1], 10, 64)
			key, err2 := sspcrypto.KeyFromBase64(f[2])
			if err := errors.Join(err1, err2); err != nil {
				p.kill()
				return nil, fmt.Errorf("daemon session line %q: %w", line, err)
			}
			p.ids = append(p.ids, id)
			p.keys = append(p.keys, key)
		case len(f) == 3 && f[0] == "READY":
			p.port, err = strconv.Atoi(f[1])
			p.provider = f[2]
			return p, err
		}
	}
}

func (p *daemonProc) send(cmd string) error {
	_, err := io.WriteString(p.in, cmd+"\n")
	return err
}

func (p *daemonProc) stats() (daemonStats, error) {
	var st daemonStats
	if err := p.send("STATS"); err != nil {
		return st, err
	}
	for {
		line, err := p.out.ReadString('\n')
		if err != nil {
			return st, fmt.Errorf("daemon stats: %w", err)
		}
		if js, ok := strings.CutPrefix(line, "STATS "); ok {
			return st, json.Unmarshal([]byte(js), &st)
		}
	}
}

// quit stops the daemon and waits for it to exit.
func (p *daemonProc) quit() error {
	_ = p.send("QUIT") // a daemon that already died is reported by Wait
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		err = fmt.Errorf("daemon did not exit: %v", <-done)
	}
	os.RemoveAll(p.stateDir)
	return err
}

func (p *daemonProc) kill() {
	p.in.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
	os.RemoveAll(p.stateDir)
}

// worker owns one UDP socket and the clients multiplexed over it. All of
// its state is touched only by its goroutine.
type worker struct {
	conn    *net.UDPConn
	server  netip.AddrPort
	clients []*benchClient
	byID    map[uint64]int // session ID → index in clients
	tickAt  []time.Time
	due     []dueKey
	nextDue int
	m       meter
	log     *spanLog
	buf     []byte
	err     error
}

type dueKey struct {
	at time.Time
	ci int
}

// loopback is one set-up of the load against one daemon process.
type loopback struct {
	d       *daemonProc
	workers []*worker
}

func newLoopback(o runOpts, spec Spec, scripts []*Script, round int, traced bool, spanPath string) (*loopback, error) {
	d, err := startDaemon(o, round, traced, spanPath)
	if err != nil {
		return nil, err
	}
	if len(d.ids) != len(scripts) {
		d.kill()
		return nil, fmt.Errorf("daemon opened %d sessions, want %d", len(d.ids), len(scripts))
	}
	lb := &loopback{d: d}
	nw := runtime.NumCPU()
	if nw > 2 {
		nw = 2
	}
	server := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(d.port))
	for i := 0; i < nw; i++ {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			lb.close()
			return nil, err
		}
		w := &worker{conn: conn, server: server, byID: map[uint64]int{}, buf: make([]byte, 65536)}
		if traced {
			w.log = newSpanLog(true)
		}
		lb.workers = append(lb.workers, w)
	}
	for i, id := range d.ids {
		w := lb.workers[i%nw]
		b := &benchClient{id: id, script: scripts[i], h: spec.Height, m: &w.m, log: w.log}
		b.c, err = core.NewClient(core.ClientConfig{
			Key:         d.keys[i],
			Clock:       simclock.Real{},
			Width:       spec.Width,
			Height:      spec.Height,
			Predictions: overlay.Adaptive,
			Envelope:    &network.Envelope{ID: id},
			RecycleWire: true,
			Emit:        w.emitter(id),
		})
		if err != nil {
			lb.close()
			return nil, err
		}
		w.clients = append(w.clients, b)
		w.byID[id] = len(w.clients) - 1
		w.tickAt = append(w.tickAt, time.Time{})
	}
	return lb, nil
}

func (w *worker) emitter(id uint64) func([]byte) {
	return func(wire []byte) {
		sp := w.log.begin(spSockWrite, id, 0)
		if _, err := w.conn.WriteToUDPAddrPort(wire, w.server); err != nil && w.err == nil {
			w.err = fmt.Errorf("session %d: send: %w", id, err)
		}
		w.log.end(sp)
	}
}

func (lb *loopback) close() error {
	for _, w := range lb.workers {
		w.conn.Close()
	}
	return lb.d.quit()
}

// schedule lays every client's script out on the wall clock from start.
func (w *worker) schedule(start time.Time) {
	w.due = w.due[:0]
	for ci, b := range w.clients {
		at := start
		for _, st := range b.script.Steps {
			at = at.Add(st.Gap)
			w.due = append(w.due, dueKey{at: at, ci: ci})
		}
	}
	sort.SliceStable(w.due, func(i, j int) bool { return w.due[i].at.Before(w.due[j].at) })
	w.nextDue = 0
}

func (w *worker) rearm(ci int, now time.Time) {
	wait := w.clients[ci].c.WaitTime()
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	w.tickAt[ci] = now.Add(wait)
}

// loop runs the worker's event loop until until, or until done reports
// true. With gen set it types every keystroke due before genUntil.
func (w *worker) loop(until time.Time, gen bool, genUntil time.Time, done func(*worker) bool) {
	for w.err == nil {
		now := time.Now()
		if !now.Before(until) || (done != nil && done(w)) {
			return
		}
		for gen && w.nextDue < len(w.due) && !w.due[w.nextDue].at.After(now) && w.due[w.nextDue].at.Before(genUntil) {
			k := w.due[w.nextDue]
			w.nextDue++
			w.clients[k.ci].typeKey(now, k.at)
			now = time.Now()
			w.rearm(k.ci, now)
		}
		wake := until
		for ci, b := range w.clients {
			if !w.tickAt[ci].After(now) {
				b.tick()
				now = time.Now()
				w.rearm(ci, now)
			}
			if w.tickAt[ci].Before(wake) {
				wake = w.tickAt[ci]
			}
		}
		if gen && w.nextDue < len(w.due) && w.due[w.nextDue].at.Before(wake) {
			wake = w.due[w.nextDue].at
		}
		w.conn.SetReadDeadline(wake)
		n, _, err := w.conn.ReadFromUDPAddrPort(w.buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			w.err = fmt.Errorf("read: %w", err)
			return
		}
		id, _, err := network.ParseEnvelope(w.buf[:n])
		if err != nil {
			continue
		}
		ci, ok := w.byID[id]
		if !ok {
			continue
		}
		w.clients[ci].receive(w.buf[:n], time.Now)
		w.rearm(ci, time.Now())
	}
}

// phase runs every worker's loop concurrently and waits for all of them.
func (lb *loopback) phase(until time.Time, gen bool, genUntil time.Time, done func(*worker) bool) error {
	var wg sync.WaitGroup
	for _, w := range lb.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// Locked, the thread CPU clock times this worker's spans.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			w.loop(until, gen, genUntil, done)
		}(w)
	}
	wg.Wait()
	for _, w := range lb.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

func allHaveState(w *worker) bool {
	for _, b := range w.clients {
		if b.c.Transport().RemoteStateNum() == 0 {
			return false
		}
	}
	return true
}

func allShown(w *worker) bool {
	for _, b := range w.clients {
		if len(b.pending) > 0 {
			return false
		}
	}
	return true
}

// loopbackResult is one measured loopback run.
type loopbackResult struct {
	m        meter
	setup    []time.Duration
	loadCPU  time.Duration
	daemon   daemonStats
	provider string
	window   time.Duration
	begin    time.Time
	spans    spanSummary // load process, traced runs
	joined   float64     // share of typed keystrokes found in the daemon's spans
	clients  []*benchClient
}

// runLoopback sets up setupRounds times (keeping the last), runs the
// schedule for o.seconds, drains, and checks every session's outputs.
func runLoopback(o runOpts, traced bool) (*loopbackResult, error) {
	spec, err := specFor(o.workload)
	if err != nil {
		return nil, err
	}
	scripts := buildScripts(spec, o.seed, scheduleSpan(o.seconds), 0)
	res := &loopbackResult{}
	spanPath := ""
	if traced {
		dir := filepath.Join(o.outDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		spanPath = filepath.Join(dir, fmt.Sprintf("%s-%d-daemon.spans", o.workload, o.seed))
	}
	var lb *loopback
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		lb, err = newLoopback(o, spec, scripts, round, traced, spanPath)
		if err != nil {
			return nil, err
		}
		if err := lb.phase(t0.Add(30*time.Second), false, t0, allHaveState); err != nil {
			lb.close()
			return nil, err
		}
		for _, w := range lb.workers {
			if !allHaveState(w) {
				lb.close()
				return nil, errors.New("setup: a client never received the first server state")
			}
		}
		res.setup = append(res.setup, time.Since(t0))
		if round < setupRounds-1 {
			if err := lb.close(); err != nil {
				return nil, err
			}
		}
	}
	res.provider = lb.d.provider
	fail := func(err error) (*loopbackResult, error) {
		lb.close()
		return nil, err
	}

	// Measured window.
	if err := lb.d.send("BEGIN"); err != nil {
		return fail(err)
	}
	cpu0 := cpuNow()
	res.begin = time.Now()
	start := res.begin.Add(10 * time.Millisecond)
	for _, w := range lb.workers {
		w.schedule(start)
		w.m = meter{}
	}
	end := start.Add(time.Duration(o.seconds) * time.Second)
	if err := lb.phase(end, true, end, nil); err != nil {
		return fail(err)
	}
	res.window = time.Since(start)
	if err := lb.d.send("END"); err != nil {
		return fail(err)
	}
	if err := lb.phase(time.Now().Add(drainLimit), false, end, allShown); err != nil {
		return fail(err)
	}

	// Output checks: the daemon answered exactly what was typed, and every
	// client shows the daemon's screen. A client may still be a state
	// behind, so mismatches get a few short rounds to settle.
	for attempt := 0; ; attempt++ {
		st, err := lb.d.stats()
		if err != nil {
			return fail(err)
		}
		if attempt == 0 {
			res.loadCPU = cpuNow() - cpu0
			res.daemon = st
		}
		bad := checkSessions(lb, st)
		if bad == nil {
			break
		}
		if attempt == 10 {
			return fail(bad)
		}
		if err := lb.phase(time.Now().Add(300*time.Millisecond), false, end, nil); err != nil {
			return fail(err)
		}
	}
	for _, w := range lb.workers {
		res.m.merge(&w.m)
		res.clients = append(res.clients, w.clients...)
	}
	if traced {
		typed := map[[2]uint32]int64{}
		for _, w := range lb.workers {
			for k, v := range w.log.keys(spClientType) {
				typed[k] = v
			}
		}
		var logs []*spanLog
		for _, w := range lb.workers {
			logs = append(logs, w.log)
		}
		res.spans = mergeSummaries(logs, res.begin.UnixNano())
		if err := lb.close(); err != nil {
			return nil, err
		}
		if err := writeLoadSpans(logs, filepath.Join(o.outDir, "traces", fmt.Sprintf("%s-%d-load.spans", o.workload, o.seed))); err != nil {
			return nil, err
		}
		inputs, err := readSpanKeys(spanPath, spanNames[spHostInput])
		if err != nil {
			return nil, err
		}
		joined := 0
		for k, at := range typed {
			if in, ok := inputs[k]; ok && in >= at {
				joined++
			}
		}
		res.joined = 100 * ratio(float64(joined), float64(len(typed)))
		return res, nil
	}
	return res, lb.close()
}

// checkSessions compares the daemon's view of each session with its
// client's: inputs received must equal keystrokes typed, none may differ
// from the script, and the screens must paint the same bytes.
func checkSessions(lb *loopback, st daemonStats) error {
	byID := map[uint64]sessionStat{}
	for _, s := range st.Sessions {
		byID[s.ID] = s
	}
	var errs []error
	for _, w := range lb.workers {
		for _, b := range w.clients {
			s, ok := byID[b.id]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("session %d: missing from the daemon", b.id))
			case s.Bad > 0 || s.Inputs != b.next:
				errs = append(errs, fmt.Errorf("session %d: host got %d inputs (%d unscripted), client typed %d", b.id, s.Inputs, s.Bad, b.next))
			case s.Hash != b.screenHash():
				errs = append(errs, fmt.Errorf("session %d: client screen differs from the daemon's (%d keystrokes not yet displayed)", b.id, len(b.pending)))
			}
		}
	}
	return errors.Join(errs...)
}

func mergeSummaries(logs []*spanLog, from int64) spanSummary {
	out := spanSummary{Self: map[string]int64{}, Busy: map[string]int64{}, Count: map[string]int64{}}
	for _, l := range logs {
		s := l.summarize(from)
		for k, v := range s.Self {
			out.Self[k] += v
		}
		for k, v := range s.Busy {
			out.Busy[k] += v
		}
		for k, v := range s.Count {
			out.Count[k] += v
		}
		out.Total += s.Total
	}
	return out
}

func writeLoadSpans(logs []*spanLog, path string) error {
	all := newSpanLog(true)
	for _, l := range logs {
		base := int32(len(all.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all.spans = append(all.spans, s)
		}
	}
	return all.writeFile(path)
}
