package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// Spans are recorded by the benchmark's own code around its calls into
// each layer, kept in memory, and written out when the run ends. Spans of
// one keystroke share an ID: the session ID plus the user stream's
// absolute event index, which the load process (Client.UserBytes returns
// it) and the daemon (the host application counts its inputs) both see.
// Times are the host's wall clock in nanoseconds, so the two processes'
// files join directly.

type spanName uint8

const (
	spClientRecv  spanName = iota // core.client_recv: Client.Receive
	spClientType                  // core.client_type: Client.UserBytes
	spClientTick                  // core.client_tick: Client.Tick
	spRender                      // terminal.client_render: Display + NewFrame
	spCheck                       // loadgen.check: reading the status row back
	spSockWrite                   // loadgen.udp_write: the load process's socket write
	spBatchWrite                  // udpbatch.write: the daemon's WriteBatch
	spDispatch                    // sessiond.dispatch: ReadBatch return → next ReadBatch
	spHostInput                   // host.input: the application's Input
	spHandleBatch                 // sessiond.handle_batch: Daemon.HandleBatch
	spTickDue                     // sessiond.tick_due: Daemon.TickDue
	spNetem                       // netem.send: the emulated link's Send
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.client_recv", "core.client_type", "core.client_tick", "terminal.client_render",
	"loadgen.check", "loadgen.udp_write", "udpbatch.write", "sessiond.dispatch",
	"host.input", "sessiond.handle_batch", "sessiond.tick_due", "netem.send",
}

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

type span struct {
	name       spanName
	parent     int32
	sess, idx  uint32
	start, end int64 // wall clock, unix ns
	cpu        int64 // time the span took, ns: thread CPU time in a CPU-clocked log
}

// spanLog is an in-memory span recorder. A nil *spanLog records nothing,
// which is how untraced runs skip it. begin/end nest spans of one
// goroutine; add records a finished span as a child of the open one, if
// any, and in a log nobody nests in it is safe from any goroutine.
//
// A CPU-clocked log times begin/end spans on the thread CPU clock, for a
// goroutine locked to its thread, so a span's self time is CPU it spent
// rather than wall time it was descheduled for. Other logs (the daemon's,
// whose goroutines are not the benchmark's to lock) use wall time.
type spanLog struct {
	mu       sync.Mutex
	spans    []span
	cur      int32
	cpuClock bool
}

func newSpanLog(cpuClock bool) *spanLog {
	return &spanLog{cur: -1, spans: make([]span, 0, 1<<16), cpuClock: cpuClock}
}

func (l *spanLog) begin(n spanName, sess uint64, idx uint64) int32 {
	if l == nil {
		return -1
	}
	var cpu int64
	if l.cpuClock {
		cpu = int64(threadCPU())
	}
	l.mu.Lock()
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: n, parent: l.cur, sess: uint32(sess), idx: uint32(idx), start: time.Now().UnixNano(), cpu: cpu})
	l.cur = i
	l.mu.Unlock()
	return i
}

func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	var cpu int64
	if l.cpuClock {
		cpu = int64(threadCPU())
	}
	l.mu.Lock()
	sp := &l.spans[i]
	sp.end = time.Now().UnixNano()
	if l.cpuClock {
		sp.cpu = cpu - sp.cpu
	} else {
		sp.cpu = sp.end - sp.start
	}
	l.cur = sp.parent
	l.mu.Unlock()
}

func (l *spanLog) add(n spanName, sess, idx uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: n, parent: l.cur, sess: uint32(sess), idx: uint32(idx),
		start: start.UnixNano(), end: end.UnixNano(), cpu: int64(end.Sub(start))})
	l.mu.Unlock()
}

// spanSummary is what a process's spans add up to.
type spanSummary struct {
	Self  map[string]int64 `json:"self_ns"`  // self time per layer
	Busy  map[string]int64 `json:"busy_ns"`  // total span time per span name
	Count map[string]int64 `json:"count"`    // spans per span name
	Total int64            `json:"total_ns"` // Σ self time over every span
}

// summarize computes each layer's self time over the spans that started
// at or after from (unix ns): a span's time minus its child spans' time.
func (l *spanLog) summarize(from int64) spanSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.cpu
		}
	}
	sum := spanSummary{Self: map[string]int64{}, Busy: map[string]int64{}, Count: map[string]int64{}}
	for i, s := range l.spans {
		if s.end == 0 || s.start < from {
			continue
		}
		self := s.cpu - child[i]
		sum.Self[s.name.layer()] += self
		sum.Busy[spanNames[s.name]] += s.cpu
		sum.Count[spanNames[s.name]]++
		sum.Total += self
	}
	return sum
}

// keys returns the (session, index) IDs of every span named n.
func (l *spanLog) keys(n spanName) map[[2]uint32]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[[2]uint32]int64)
	for _, s := range l.spans {
		if s.name == n {
			m[[2]uint32{s.sess, s.idx}] = s.start
		}
	}
	return m
}

// writeFile writes the spans as tab-separated lines:
// name, session, event index, parent line (-1 for none), start ns, end ns.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.sess, s.idx, s.parent, s.start, s.end)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpanKeys reads back the (session, index) → start of every span
// named name from a file written by writeFile.
func readSpanKeys(path, name string) (map[[2]uint32]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := make(map[[2]uint32]int64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"\t") {
			continue
		}
		var n string
		var sess, idx uint32
		var parent int
		var start, end int64
		if _, err := fmt.Sscanf(line, "%s\t%d\t%d\t%d\t%d\t%d", &n, &sess, &idx, &parent, &start, &end); err == nil {
			m[[2]uint32{sess, idx}] = start
		}
	}
	return m, sc.Err()
}
