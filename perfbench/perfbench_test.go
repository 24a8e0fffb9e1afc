package main

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/terminal"
)

// The same seed must give the same inputs: schedules, keystrokes and the
// host applications' output bytes.
func TestScriptsDeterministic(t *testing.T) {
	for _, w := range []string{"typing", "bulk", "mobile"} {
		spec, err := specFor(w)
		if err != nil {
			t.Fatal(err)
		}
		a := buildScripts(spec, 7, 3*time.Second, 200)
		b := buildScripts(spec, 7, 3*time.Second, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 built two different script sets", w)
		}
		c := buildScripts(spec, 8, 3*time.Second, 200)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 built the same scripts", w)
		}
		for i, s := range a {
			if len(s.Steps) == 0 || len(s.Start) == 0 {
				t.Errorf("%s: session %d has an empty script", w, i)
			}
		}
	}
}

// Every reply ends with the status row, and the client reads back the
// number of the keystroke it answers.
func TestStatusRowReadsBack(t *testing.T) {
	spec, _ := specFor("typing")
	s := buildScripts(spec, 1, time.Second, 0)[0]
	em := terminal.NewEmulator(spec.Width, spec.Height)
	em.Write(s.Start)
	for i, st := range s.Steps[:50] {
		em.Write(st.Resp)
		n, ok := statusCounter(em.Framebuffer(), spec.Height)
		if !ok || n != uint64(i+1) {
			t.Fatalf("after step %d the status row reads %d (ok=%v): %q", i+1, n, ok, em.Framebuffer().Text(spec.Height-1))
		}
	}
}

// The replay application answers the scripted keystroke and flags any
// other input.
func TestReplayAppChecksInput(t *testing.T) {
	spec, _ := specFor("typing")
	s := buildScripts(spec, 1, time.Second, 0)[0]
	var total atomic.Int64
	a := &replayApp{sess: 1, script: s, total: &total}
	out, _ := a.Input(s.Steps[0].Key)
	if !bytes.Equal(out, s.Steps[0].Resp) || a.bad != 0 {
		t.Fatalf("scripted keystroke got %q, bad=%d", out, a.bad)
	}
	if _, _ = a.Input([]byte("\x00")); a.bad != 1 || a.inputs != 2 || total.Load() != 2 {
		t.Fatalf("unscripted keystroke: bad=%d inputs=%d total=%d", a.bad, a.inputs, total.Load())
	}
}

// Two same-seed mobile replays agree on every protocol-visible number:
// everything except host CPU time and memory.
func TestMobileDeterministic(t *testing.T) {
	a, err := mobileReplay(3, 150, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mobileReplay(3, 150, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.proto, b.proto) {
		t.Fatalf("same-seed mobile replays differ:\n%+v\n%+v", a.proto, b.proto)
	}
	if a.m.typed != 6*150 || a.m.resolved != a.m.typed || len(a.EchoVirt) == 0 {
		t.Fatalf("replay typed %d, resolved %d, echo samples %d", a.m.typed, a.m.resolved, len(a.EchoVirt))
	}
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: the helper must not rely on order
	}
	return v
}

// The tail is the highest percentile up to the one asked for with at
// least ten samples beyond it, and says which it reached.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n         int
		q, value  float64
		beyond, N int
	}{
		{1000, 0.99, 990, 10, 1000},
		{999, 0.95, 950, 49, 999},
		{100000, 0.99, 99000, 1000, 100000},
		{200, 0.95, 190, 10, 200},
		{15, 0.5, 8, 7, 15}, // too few for any tail: the median, with its count
	}
	for _, c := range cases {
		v := seq(c.n)
		p := tail(v, 0.99)
		if p.Q != c.q || p.Value != c.value || p.Beyond != c.beyond || p.N != c.N {
			t.Errorf("tail of %d samples = %+v, want q=%v value=%v beyond=%d", c.n, p, c.q, c.value, c.beyond)
		}
		if v[0] != float64(c.n) {
			t.Errorf("tail reordered its input")
		}
	}
	if m := median(seq(9)); m.Value != 5 || m.Beyond != 4 {
		t.Errorf("median of 1..9 = %+v", m)
	}
}

// Windowed percentiles are medians over windows of due time, so one bad
// window cannot move them.
func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	var v []float64
	var at []int64
	for w := 0; w < 5; w++ {
		for i := 0; i < 1500; i++ {
			x := float64(10 + i%10)
			if w == 2 {
				x *= 10
			}
			v = append(v, x)
			at = append(at, int64(w*1500+i))
		}
	}
	p50, p99 := windowed(v, at)
	if p50.Value != 14 || p99.Value != 19 || p99.N != 5 || p99.Q != 0.99 || p50.N != len(v) {
		t.Fatalf("windowed = %+v %+v", p50, p99)
	}
}
