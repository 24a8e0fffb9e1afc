package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/netem"
)

// Everything a workload feeds the program is generated here from the run
// seed: keystroke schedules, the host applications' prerecorded output and
// the mobile link parameters. Nothing is imported from the repository's own
// bench, trace or demo-application code, so editing those cannot change
// what this benchmark measures.

// Step is one keystroke of a session's script: when it is due (Gap after
// the previous step), the bytes the user types, and the host application's
// prerecorded reply to it.
type Step struct {
	Gap   time.Duration
	Key   []byte
	Resp  []byte
	Delay time.Duration
	// Burst marks a keystroke answered by multi-line output; its latency
	// is sampled as a burst. Echo marks a keystroke whose echo latency is
	// sampled (every keystroke of a typing-like session).
	Burst bool
	Echo  bool
}

// Script is one session's whole input and output: the application's
// start-up screen and its steps in order.
type Script struct {
	Kind  string
	Start []byte
	Steps []Step
}

// Spec fixes the shape of a workload: how many sessions of which kind, the
// terminal size, and whether the daemon journals to disk.
type Spec struct {
	Width, Height int
	Kinds         []string // one entry per session, in session-ID order
	Persist       bool
}

const (
	kindTyping = "typing" // fast bursty typing into a shell
	kindHuman  = "human"  // human-paced typing into a shell
	kindViewer = "viewer" // log viewer: a key releases a screenful-plus burst
	kindShell  = "shell"  // mobile shell trace
	kindEditor = "editor" // mobile editor trace
	kindMail   = "mail"   // mobile mail-reader trace
)

// Session counts per workload. typing: a dozen long-lived sessions aged
// to thousands of user events within one run. bulk: log viewers plus a
// small cohort of young human-paced typists. mobile: six users, as in the
// paper's trace collection.
const (
	typingSessions = 12
	bulkViewers    = 40
	bulkTypists    = 48
	mobileKeys     = 1700 // keystrokes per mobile user, about
)

func specFor(workload string) (Spec, error) {
	switch workload {
	case "typing":
		s := Spec{Width: 80, Height: 24, Persist: true}
		for i := 0; i < typingSessions; i++ {
			s.Kinds = append(s.Kinds, kindTyping)
		}
		return s, nil
	case "bulk":
		// A 100×30 screen of random text compresses to a diff of several
		// MTU-sized fragments.
		s := Spec{Width: 100, Height: 30}
		for i := 0; i < bulkViewers; i++ {
			s.Kinds = append(s.Kinds, kindViewer)
		}
		for i := 0; i < bulkTypists; i++ {
			s.Kinds = append(s.Kinds, kindHuman)
		}
		return s, nil
	case "mobile":
		return Spec{Width: 80, Height: 24,
			Kinds: []string{kindShell, kindEditor, kindMail, kindShell, kindEditor, kindMail}}, nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (want typing, bulk or mobile)", workload)
}

// sessionRand derives an independent generator for session i of a run.
func sessionRand(seed int64, i int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + salt))
}

// buildScripts generates every session's script for a run. Loopback
// scripts cover span of schedule time; mobile scripts have a fixed
// keystroke count (keys, scaled down only by the self-tests).
func buildScripts(spec Spec, seed int64, span time.Duration, keys int) []*Script {
	pool := linePool(rand.New(rand.NewSource(seed)), spec.Width)
	out := make([]*Script, len(spec.Kinds))
	for i, k := range spec.Kinds {
		g := &gen{rng: sessionRand(seed, i, int64(len(k))), w: spec.Width, h: spec.Height, pool: pool}
		switch k {
		case kindTyping:
			out[i] = g.shell(k, fastPace, span, 0)
		case kindHuman:
			out[i] = g.shell(k, humanPace, span, 0)
		case kindShell:
			out[i] = g.shell(k, humanPace, 0, keys)
		case kindViewer:
			out[i] = g.viewer(span)
		case kindEditor:
			out[i] = g.editor(keys)
		case kindMail:
			out[i] = g.mail(keys)
		}
	}
	return out
}

// pace is a typist: runs of burstMin..burstMax keys gapMin..gapMax apart,
// separated by pauses of pauseMin..pauseMax.
type pace struct {
	burstMin, burstMax int
	gapMin, gapMax     time.Duration
	pauseMin, pauseMax time.Duration
}

// fastPace types in paste-speed bursts, so a session reaches an age of
// thousands of user events within one run.
var fastPace = pace{burstMin: 10, burstMax: 40, gapMin: 3 * time.Millisecond,
	gapMax: 8 * time.Millisecond, pauseMin: 20 * time.Millisecond, pauseMax: 120 * time.Millisecond}

var humanPace = pace{burstMin: 3, burstMax: 12, gapMin: 60 * time.Millisecond,
	gapMax: 220 * time.Millisecond, pauseMin: 300 * time.Millisecond, pauseMax: 1500 * time.Millisecond}

type gen struct {
	rng  *rand.Rand
	w, h int
	pool [][]byte
	n    int // keystrokes generated so far (the status counter)
	left int // keys left in the current typing run
}

func (g *gen) between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.rng.Int63n(int64(hi-lo)))
}

func (g *gen) gap(p pace) time.Duration {
	if g.left <= 0 {
		g.left = p.burstMin + g.rng.Intn(p.burstMax-p.burstMin+1)
		return g.between(p.pauseMin, p.pauseMax)
	}
	g.left--
	return g.between(p.gapMin, p.gapMax)
}

// status appends the status row every reply ends with: the count of
// keystrokes the application has answered, drawn on the bottom row
// outside the scrolling region with the cursor saved and restored. The
// client reads it back from its copy of the screen to learn which
// keystrokes it is showing the reply to.
func (g *gen) status(out []byte, label string) []byte {
	out = append(out, "\x1b7\x1b["...)
	out = strconv.AppendInt(out, int64(g.h), 10)
	out = append(out, ";1Hk="...)
	out = strconv.AppendInt(out, int64(g.n), 10)
	out = append(out, ' ')
	out = append(out, label...)
	out = append(out, "\x1b[K\x1b8"...)
	return out
}

// screenSetup clears the screen and confines scrolling to every row but
// the status row.
func (g *gen) screenSetup(label string) []byte {
	out := []byte("\x1b[2J\x1b[1;")
	out = strconv.AppendInt(out, int64(g.h-1), 10)
	out = append(out, "r\x1b[H"...)
	return g.status(out, label)
}

func (g *gen) step(s *Script, gap time.Duration, key, resp []byte, delay time.Duration, burst, echo bool) {
	s.Steps = append(s.Steps, Step{Gap: gap, Key: key, Resp: resp, Delay: delay, Burst: burst, Echo: echo})
}

const prompt = "bench$ "

// shell types words into a line-editing shell: every character is echoed,
// and Enter prints a few output lines from a pool shared by every session
// (so identical rows recur across sessions) and a fresh prompt. It stops
// once the schedule covers span, or after keys keystrokes.
func (g *gen) shell(kind string, p pace, span time.Duration, keys int) *Script {
	s := &Script{Kind: kind}
	start := append(g.screenSetup(kind), prompt...)
	s.Start = start
	var total time.Duration
	line := 0
	maxLine := g.w - len(prompt) - 2
	if kind == kindTyping {
		maxLine = 30 // short commands: Enter's output is typing's burst sample
	}
	target := 8 + g.rng.Intn(maxLine-8)
	for (span > 0 && total < span) || (keys > 0 && len(s.Steps) < keys) {
		gap := g.gap(p)
		total += gap
		g.n++
		if line >= target {
			resp := []byte("\r\n")
			for j := 1 + g.rng.Intn(4); j > 0; j-- {
				resp = append(resp, g.pool[g.rng.Intn(len(g.pool))]...)
				resp = append(resp, "\r\n"...)
			}
			resp = append(resp, prompt...)
			g.step(s, gap, []byte{'\r'}, g.status(resp, kind), g.between(time.Millisecond, 6*time.Millisecond), true, true)
			line = 0
			target = 8 + g.rng.Intn(maxLine-8)
			continue
		}
		if kind == kindShell && line > 0 && g.rng.Intn(25) == 0 {
			g.step(s, gap, []byte{0x7f}, g.status([]byte("\b \b"), kind), 0, false, true)
			line--
			continue
		}
		c := byte('a' + g.rng.Intn(26))
		if line > 0 && g.rng.Intn(6) == 0 {
			c = ' '
		}
		line++
		g.step(s, gap, []byte{c}, g.status([]byte{c}, kind), 0, false, true)
	}
	return s
}

// viewer is a log viewer: each keystroke releases a high-entropy burst of
// more than a screenful, so even the compressed diff spans several MTU
// fragments. Viewers press a key every 150-450 ms.
func (g *gen) viewer(span time.Duration) *Script {
	s := &Script{Kind: kindViewer, Start: g.screenSetup(kindViewer)}
	var total time.Duration
	for total < span {
		gap := g.between(150*time.Millisecond, 450*time.Millisecond)
		total += gap
		g.n++
		var resp []byte
		for j := g.h + g.rng.Intn(g.h/2); j > 0; j-- {
			resp = append(resp, "\r\n"...)
			for c := 0; c < g.w-1; c++ {
				resp = append(resp, byte('!'+g.rng.Intn(94)))
			}
		}
		g.step(s, gap, []byte{' '}, g.status(resp, kindViewer), g.between(0, 3*time.Millisecond), true, false)
	}
	return s
}

// editor is a full-screen editor in overwrite mode: typed characters are
// echoed at the cursor, arrows move it, Enter moves to the next line, and
// now and then ^F pages to a freshly drawn screen.
func (g *gen) editor(keys int) *Script {
	s := &Script{Kind: kindEditor}
	start := g.screenSetup(kindEditor)
	start = append(start, g.page()...)
	s.Start = append(start, "\x1b[H"...)
	for len(s.Steps) < keys {
		gap := g.gap(humanPace)
		g.n++
		switch r := g.rng.Intn(100); {
		case r < 2:
			resp := append(g.page(), "\x1b[H"...)
			g.step(s, gap, []byte{0x06}, g.status(resp, kindEditor), g.between(5*time.Millisecond, 30*time.Millisecond), true, true)
		case r < 10:
			arrows := []struct{ key, move string }{
				{"\x1b[A", "\x1b[A"}, {"\x1b[B", "\x1b[B"}, {"\x1b[C", "\x1b[C"}, {"\x1b[D", "\x1b[D"}}
			a := arrows[g.rng.Intn(len(arrows))]
			g.step(s, gap, []byte(a.key), g.status([]byte(a.move), kindEditor), g.between(0, 2*time.Millisecond), false, true)
		case r < 16:
			g.step(s, gap, []byte{'\r'}, g.status([]byte("\r\n"), kindEditor), g.between(0, 2*time.Millisecond), false, true)
		default:
			c := byte('a' + g.rng.Intn(26))
			if g.rng.Intn(6) == 0 {
				c = ' '
			}
			g.step(s, gap, []byte{c}, g.status([]byte{c}, kindEditor), g.between(0, 2*time.Millisecond), false, true)
		}
	}
	return s
}

// page draws every row of the scrolling region from the shared pool.
func (g *gen) page() []byte {
	out := []byte("\x1b[H")
	for r := 0; r < g.h-1; r++ {
		out = append(out, g.pool[g.rng.Intn(len(g.pool))]...)
		out = append(out, "\x1b[K"...)
		if r < g.h-2 {
			out = append(out, "\r\n"...)
		}
	}
	return out
}

// mail is a mail reader: j/k move the highlighted message (repainting two
// rows, with no echo of the key itself), Enter opens a message and q
// returns to the list (full repaints), and r starts a short reply typed
// with echo. Navigation keys are what the paper's predictor mispredicts.
func (g *gen) mail(keys int) *Script {
	s := &Script{Kind: kindMail}
	sel, rows := 0, g.h-3
	list := func() []byte {
		out := []byte("\x1b[H\x1b[2J")
		out = append(out, "  Inbox"...)
		for r := 0; r < rows; r++ {
			out = append(out, "\r\n"...)
			if r == sel {
				out = append(out, "\x1b[7m"...)
			}
			out = append(out, fmt.Sprintf("%3d  %s", r+1, g.pool[(r*7)%len(g.pool)][:40])...)
			if r == sel {
				out = append(out, "\x1b[m"...)
			}
		}
		return out
	}
	s.Start = g.status(append(g.screenSetup(kindMail), list()...), kindMail)
	open := false
	reply := 0
	for len(s.Steps) < keys {
		g.n++
		if reply > 0 {
			reply--
			c := byte('a' + g.rng.Intn(26))
			if reply == 0 {
				g.step(s, g.gap(humanPace), []byte{'\r'}, g.status(list(), kindMail), g.between(10*time.Millisecond, 40*time.Millisecond), true, true)
				open = false
				continue
			}
			g.step(s, g.gap(humanPace), []byte{c}, g.status([]byte{c}, kindMail), 0, false, true)
			continue
		}
		gap := g.between(300*time.Millisecond, 1500*time.Millisecond)
		if g.rng.Intn(8) == 0 {
			gap += g.between(2*time.Second, 8*time.Second) // reading
		}
		switch r := g.rng.Intn(100); {
		case open && r < 50:
			g.step(s, gap, []byte{'q'}, g.status(list(), kindMail), g.between(10*time.Millisecond, 40*time.Millisecond), true, true)
			open = false
		case open && r < 70:
			resp := []byte("\x1b[H\x1b[2J> ")
			g.left = 0
			g.step(s, gap, []byte{'r'}, g.status(resp, kindMail), g.between(5*time.Millisecond, 20*time.Millisecond), false, true)
			reply = 10 + g.rng.Intn(30)
		case open:
			g.step(s, gap, []byte{' '}, g.status(g.page(), kindMail), g.between(10*time.Millisecond, 40*time.Millisecond), true, true)
		case r < 12:
			resp := g.page()
			g.step(s, gap, []byte{'\r'}, g.status(resp, kindMail), g.between(10*time.Millisecond, 40*time.Millisecond), true, true)
			open = true
		default:
			key := byte('j')
			old := sel
			if (g.rng.Intn(3) == 0 && sel > 0) || sel == rows-1 {
				key = 'k'
				sel--
			} else {
				sel++
			}
			resp := []byte(fmt.Sprintf("\x1b[%d;1H%3d  %s\x1b[%d;1H\x1b[7m%3d  %s\x1b[m",
				old+2, old+1, g.pool[(old*7)%len(g.pool)][:40], sel+2, sel+1, g.pool[(sel*7)%len(g.pool)][:40]))
			g.step(s, gap, []byte{key}, g.status(resp, kindMail), g.between(2*time.Millisecond, 10*time.Millisecond), false, true)
		}
	}
	return s
}

// linePool is the run's shared stock of output lines: shell command
// output, editor text and mail subjects all draw from it, so identical
// screen rows recur across sessions.
func linePool(rng *rand.Rand, width int) [][]byte {
	words := []string{"total", "drwxr-xr-x", "user", "staff", "README", "src", "build", "main.go",
		"ok", "PASS", "error:", "warning:", "commit", "merge", "branch", "origin", "the", "of",
		"and", "to", "in", "is", "for", "on", "with", "as", "by", "at", "from", "mail", "re:"}
	pool := make([][]byte, 64)
	for i := range pool {
		var l []byte
		for len(l) < 44+rng.Intn(width/2-10) {
			if len(l) > 0 {
				l = append(l, ' ')
			}
			l = append(l, words[rng.Intn(len(words))]...)
		}
		if len(l) > width-2 {
			l = l[:width-2]
		}
		pool[i] = l
	}
	return pool
}

// mobilePath is one mobile user's emulated EV-DO-like path, drawn from the
// seed around ~380 ms RTT, ~900 kbit/s, a shallow queue and a little
// i.i.d. loss.
func mobilePath(rng *rand.Rand) netem.LinkParams {
	return netem.LinkParams{
		Delay:          time.Duration(180+rng.Intn(20)) * time.Millisecond,
		Jitter:         time.Duration(15+rng.Intn(15)) * time.Millisecond,
		LossProb:       0.005 + 0.01*rng.Float64(),
		RateBitsPerSec: int64(850_000 + rng.Intn(100_000)),
		QueueBytes:     16_000 + rng.Intn(8_000),
		Overhead:       28,
	}
}
