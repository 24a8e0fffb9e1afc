package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
)

// TestKeystrokeAllocsAgeInvariant is the session-age gate: one virtual-time
// session types 10⁴ keystrokes, and a keystroke's full round trip (client
// input, server receive and delivery, echo frame, client apply) must cost
// about as many allocations at age 10⁴ as at age 10². The server's
// receiver must also retain only a small, age-independent number of
// events: delivered history every retained state shares is dropped.
// Without that trim each received state cloned the whole history, so both
// figures grew linearly with age.
func TestKeystrokeAllocsAgeInvariant(t *testing.T) {
	const (
		earlyAge, lateAge = 100, 10000
		maxRatio          = 1.5
		maxRetained       = 16
	)
	ss := newSession(t, netem.LinkParams{Delay: 20 * time.Millisecond}, overlay.Adaptive)
	ss.run(time.Second)
	typed := 0
	keystroke := func() {
		ss.client.TypeRune(rune('a' + typed%26))
		ss.wakeClient()
		ss.run(60 * time.Millisecond)
		typed++
	}
	recv := ss.server.Transport().Receiver()
	measure := func(age int) (allocs float64, retained int) {
		for typed < age {
			keystroke()
		}
		allocs = testing.AllocsPerRun(200, keystroke)
		for i := 0; i < recv.StateCount(); i++ {
			retained += len(recv.State(i).EventsSince(0))
		}
		return allocs, retained
	}
	early, earlyRetained := measure(earlyAge)
	late, lateRetained := measure(lateAge)
	t.Logf("allocs/keystroke: %.1f at age %d, %.1f at age %d; retained events %d, %d",
		early, earlyAge, late, lateAge, earlyRetained, lateRetained)
	if late > maxRatio*early {
		t.Errorf("allocs per keystroke grew from %.1f at age %d to %.1f at age %d (> %.1fx)",
			early, earlyAge, late, lateAge, maxRatio)
	}
	for _, r := range []int{earlyRetained, lateRetained} {
		if r > maxRetained {
			t.Errorf("server receiver retains %d events across its states, want <= %d", r, maxRetained)
		}
	}
	if got := ss.server.Transport().RemoteState().Size(); got != uint64(typed) {
		t.Fatalf("server saw %d events, typed %d", got, typed)
	}
}
