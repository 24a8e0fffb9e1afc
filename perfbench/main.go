// Command perfbench is the repository's benchmark: what one keystroke
// costs the user in latency and the server operator in CPU and memory, on
// three workloads (typing, bulk, mobile). See README.md in this directory.
//
//	perfbench --workload typing --seed 1 --seconds 30 --trace 0
//
// prints every end-to-end metric by name with its unit and, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics. --trace 1 measures the workload untraced and then traced, and
// reports the per-layer metrics instead. perfbench/run.sh builds it from
// the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	role := flag.String("role", "load", "load (run a workload) or daemon (the loopback daemon process)")
	workload := flag.String("workload", "typing", "typing, bulk or mobile")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory for state, span files and scratch")
	stateDir := flag.String("statedir", "", "daemon role: journal directory")
	spans := flag.String("spans", "", "daemon role: span file written at exit")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	if *role == "daemon" {
		if err := runDaemon(*workload, *seed, *seconds, *trace == 1, *stateDir, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, outDir: *outDir}
	if _, err := specFor(o.workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, *trace == 1)
	if res != nil {
		res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's output: the run record, the metrics, and the
// contract's summary line.
type result struct {
	record    map[string]any
	metrics   map[string]metric
	extra     map[string]metric // printed, not part of the summary line
	correct   bool
	attempted int
	failed    int
}

func (r *result) print(f *os.File) {
	rec, _ := json.Marshal(r.record)
	fmt.Fprintf(f, "run_record %s\n", rec)
	for _, set := range []map[string]metric{r.metrics, r.extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "%-44s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	fmt.Fprintf(f, "%s\n", line)
}

// run measures one workload. Traced, it measures untraced first (for
// trace.overhead_pct) and then traced, and reports per-layer metrics.
func run(o runOpts, traced bool) (*result, error) {
	res := &result{
		record: map[string]any{
			"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": traced,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"kernel": kernelRelease(), "go": runtime.Version(), "provider": "none (virtual time)",
		},
		metrics: map[string]metric{},
		extra:   map[string]metric{},
	}
	if o.workload == "mobile" {
		return res, runMobileMetrics(o, traced, res)
	}
	return res, runLoopbackMetrics(o, traced, res)
}

// userMetrics fills the end-to-end metrics shared by every workload and
// the run record's sample counts.
// cpuUS and serverUS are CPU microseconds per keystroke.
func (r *result) userMetrics(m *meter, setup []time.Duration, cpuUS, serverUS, maxRSS float64, datagrams, bytes int64) {
	k := float64(m.typed)
	echo50, echo99 := windowed(m.echo, m.echoAt)
	burst50, burst99 := windowed(m.burst, m.burstAt)
	late := tail(m.late, 0.99)
	r.metrics["echo_p50_ms"] = metric{echo50.Value, "ms"}
	r.metrics["echo_p99_ms"] = metric{echo99.Value, "ms"}
	r.metrics["burst_p50_ms"] = metric{burst50.Value, "ms"}
	r.metrics["burst_p99_ms"] = metric{burst99.Value, "ms"}
	r.metrics["cpu_us_per_keystroke"] = metric{cpuUS, "us"}
	r.metrics["server_cpu_us_per_keystroke"] = metric{serverUS, "us"}
	r.metrics["server_maxrss_mb"] = metric{maxRSS, "MB"}
	r.metrics["datagrams_per_keystroke"] = metric{ratio(float64(datagrams), k), "count"}
	r.metrics["wire_bytes_per_keystroke"] = metric{ratio(float64(bytes), k), "bytes"}
	r.metrics["setup_s"] = metric{medianDuration(setup).Seconds(), "s"}
	r.extra["loadgen.echo_instant_pct"] = metric{100 * ratio(float64(m.instant), float64(len(m.echo))), "%"}
	r.extra["loadgen.mispredict_pct"] = metric{100 * ratio(float64(m.mispredicts), k), "%"}
	lost := m.typed - m.resolved
	r.extra["loadgen.keystrokes_lost_pct"] = metric{100 * ratio(float64(lost), k), "%"}
	r.extra["loadgen.late_ms_p99"] = metric{late.Value, "ms"}
	r.record["late_ms_p99"] = late.Value
	r.record["late_quantile"] = late.Q
	r.record["echo_samples"] = echo50.N
	r.record["echo_windows"] = echo99.N
	r.record["echo_tail_quantile"] = echo99.Q
	r.record["burst_samples"] = burst50.N
	r.record["burst_windows"] = burst99.N
	r.record["burst_tail_quantile"] = burst99.Q
	r.record["setup_rounds_s"] = durationsS(setup)
	r.attempted, r.failed = m.typed, lost
	r.correct = lost == 0
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func runLoopbackMetrics(o runOpts, traced bool, res *result) error {
	base, err := runLoopback(o, false)
	if err != nil {
		return err
	}
	res.record["provider"] = base.provider
	base.fill(res)
	if !traced {
		return nil
	}
	tr, err := runLoopback(o, true)
	if err != nil {
		return err
	}
	pl, untraced, tracedCPU := res.traced(func() { tr.fill(res) })
	st := tr.daemon
	k := float64(tr.m.typed)
	var ov overlayTotals
	var cSend [4]int64
	for _, b := range tr.clients {
		ov.add(b)
		cs := b.c.Transport().Sender().Stats()
		cSend[0] += int64(cs.Instructions)
		cSend[1] += int64(cs.EmptyAcks)
	}
	inputs := 0
	for _, s := range st.Sessions {
		inputs += s.Inputs
	}
	window := tr.window.Seconds()
	layerMetrics(pl, k, tr.spans, st.Spans, ov,
		[4]int64{st.Instructions, st.EmptyAcks, st.Fragments, st.DiffBytes}, cSend,
		float64(len(tr.clients))*window)
	pl["udpbatch.read_batch_mean"] = metric{ratio(float64(st.ReadMsgs), float64(st.ReadCalls)), "count"}
	pl["udpbatch.write_batch_mean"] = metric{ratio(float64(st.WriteMsgs), float64(st.WriteCalls)), "count"}
	pl["udpbatch.write_us"] = metric{ratio(float64(st.WriteBusyNs)/1e3, k), "us"}
	pl["udpbatch.calls_per_datagram"] = metric{ratio(float64(st.ReadCalls+st.WriteCalls), float64(st.ReadMsgs+st.WriteMsgs)), "count"}
	pl["sessiond.dispatch_us"] = metric{ratio(float64(st.DispatchBusyNs)/1e3, float64(st.ReadCalls)), "us"}
	pl["sessiond.ingress_ms_p50"] = metric{st.Ingress[0], "ms"}
	pl["sessiond.ingress_ms_p99"] = metric{st.Ingress[1], "ms"}
	pl["sessiond.egress_ms_p50"] = metric{st.Egress[0], "ms"}
	pl["sessiond.egress_ms_p99"] = metric{st.Egress[1], "ms"}
	pl["sessiond.echo_ms_p50"] = metric{st.Echo[0], "ms"}
	pl["sessiond.echo_ms_p99"] = metric{st.Echo[1], "ms"}
	pl["sessiond.cpu_late_over_early"] = metric{st.CPULateOverEarly, "ratio"}
	pl["sessiond.journal_bytes_per_s"] = metric{ratio(float64(st.JournalBytes), window), "bytes/s"}
	pl["sessiond.journal_write_amp"] = metric{st.JournalWriteAmp, "ratio"}
	pl["sessiond.resident_bytes_per_session"] = metric{float64(st.ResidentPerSess), "bytes"}
	pl["sessiond.queued_packets_p99"] = metric{st.QueuedP99, "count"}
	pl["sessiond.outstanding_states_p99"] = metric{st.OutstandingP99, "count"}
	pl["sessiond.drops"] = metric{float64(st.Drops), "count"}
	pl["sessiond.auth_failures"] = metric{float64(st.AuthFailures), "count"}
	pl["host.inputs_per_keystroke"] = metric{ratio(float64(inputs), k), "ratio"}
	pl["trace.overhead_pct"] = metric{100 * ratio(tracedCPU-untraced, untraced), "%"}
	pl["trace.unaccounted_pct.load"] = metric{unaccounted(tr.loadCPU, tr.spans), "%"}
	pl["trace.unaccounted_pct.daemon"] = metric{unaccounted(time.Duration(st.CPUNs), st.Spans), "%"}
	pl["trace.joined_pct"] = metric{tr.joined, "%"}
	res.metrics = pl
	res.correct = res.correct && base.m.typed == base.m.resolved
	return nil
}

// fill reports a loopback run's end-to-end metrics.
func (lr *loopbackResult) fill(res *result) {
	st := lr.daemon
	res.userMetrics(&lr.m, lr.setup, perKeyUS(lr.loadCPU+time.Duration(st.CPUNs), lr.m.typed),
		perKeyUS(time.Duration(st.CPUNs), lr.m.typed), st.MaxRSSMB, st.PacketsIn+st.PacketsOut, st.BytesIn+st.BytesOut)
}

// traced switches res from the untraced run to the traced one, which fill
// reports. Both runs' end-to-end figures stay as printed extras (the
// traced ones prefixed "traced."). It returns the per-layer metrics so
// far (the traced run's loadgen.* figures) and both runs'
// cpu_us_per_keystroke, for trace.overhead_pct.
func (r *result) traced(fill func()) (pl map[string]metric, untraced, traced float64) {
	e2e, extra := r.metrics, r.extra
	untraced = e2e["cpu_us_per_keystroke"].Value
	r.metrics, r.extra = map[string]metric{}, map[string]metric{}
	fill()
	traced = r.metrics["cpu_us_per_keystroke"].Value
	pl = map[string]metric{}
	for n, v := range r.extra {
		pl[n] = v
	}
	for n, v := range r.metrics {
		r.extra["traced."+n] = v
	}
	for n, v := range e2e {
		r.extra[n] = v
	}
	for n, v := range extra {
		if _, ok := r.extra[n]; !ok {
			r.extra[n] = v
		}
	}
	return pl, untraced, traced
}

// overlayTotals sums the clients' prediction statistics.
type overlayTotals struct{ predicted, shown, correct, incorrect int }

func (o *overlayTotals) add(b *benchClient) {
	s := b.c.Predictions().Stats()
	o.predicted += s.Predicted
	o.shown += s.ShownImmediately
	o.correct += s.Correct
	o.incorrect += s.Incorrect
}

// layerMetrics fills the per-layer metrics both kinds of workload derive
// the same way, from the load process's and the daemon's span summaries
// (mobile has one process and passes an empty daemon summary).
// sessionSeconds is session-time for the tick rate.
func layerMetrics(pl map[string]metric, k float64, load, daemon spanSummary, ov overlayTotals,
	sSend, cSend [4]int64, sessionSeconds float64) {
	us := func(name string) metric {
		return metric{ratio(float64(load.Busy[name]+daemon.Busy[name])/1e3, k), "us"}
	}
	pl["core.client_recv_us"] = us("core.client_recv")
	pl["core.client_recv_calls_per_keystroke"] = metric{ratio(float64(load.Count["core.client_recv"]), k), "count"}
	pl["core.client_type_us"] = us("core.client_type")
	pl["core.client_tick_us"] = us("core.client_tick")
	pl["core.client_tick_calls_per_s"] = metric{ratio(float64(load.Count["core.client_tick"]), sessionSeconds), "1/s"}
	pl["terminal.client_render_us"] = us("terminal.client_render")
	pl["sessiond.handle_batch_us"] = us("sessiond.handle_batch")
	pl["sessiond.tick_due_us"] = us("sessiond.tick_due")
	pl["overlay.shown_ratio"] = metric{ratio(float64(ov.shown), float64(ov.predicted)), "ratio"}
	pl["overlay.correct_ratio"] = metric{ratio(float64(ov.correct), float64(ov.correct+ov.incorrect)), "ratio"}
	pl["transport.server_diff_bytes_per_keystroke"] = metric{ratio(float64(sSend[3]), k), "bytes"}
	pl["transport.server_fragments_per_instruction"] = metric{ratio(float64(sSend[2]), float64(sSend[0]+sSend[1])), "count"}
	pl["transport.empty_ack_share"] = metric{ratio(float64(sSend[1]+cSend[1]), float64(sSend[0]+sSend[1]+cSend[0]+cSend[1])), "ratio"}
	for _, layer := range []string{"core", "terminal", "loadgen", "udpbatch", "sessiond", "host", "netem"} {
		pl["selftime."+layer+"_us"] = metric{ratio(float64(load.Self[layer]+daemon.Self[layer])/1e3, k), "us"}
	}
}

// unaccounted is the share of a process's CPU time no span's self time
// explains.
func unaccounted(cpu time.Duration, s spanSummary) float64 {
	return 100 * ratio(float64(cpu)-float64(s.Total), float64(cpu))
}

func perKeyUS(cpu time.Duration, keys int) float64 { return ratio(float64(cpu)/1e3, float64(keys)) }

// mobileRun is every replay one mobile run made.
type mobileRun struct {
	m                meter
	setup            []time.Duration
	cpu              time.Duration
	datagrams, bytes int64
	replays          []*replay
}

// mobileReplays is how many replays a run of seconds makes: one replay
// takes about three seconds of host time here. The count depends on
// --seconds only, so a seed always yields the same inputs.
func mobileReplays(seconds int) int { return max(1, (seconds+2)/3) }

// runMobile makes mobileReplays replays, each of its own traces (seeded
// from the run seed and the replay's index). Latency samples of replay i
// are laid out on one timeline, a day apart, so windows split by replay.
func runMobile(o runOpts, traced bool) (*mobileRun, error) {
	mr := &mobileRun{}
	for i := 0; i < mobileReplays(o.seconds); i++ {
		r, err := mobileReplay(o.seed*1000+int64(i), mobileKeys, traced)
		if err != nil {
			return nil, err
		}
		if len(mr.replays) > 0 {
			mr.replays[len(mr.replays)-1].log = nil // keep one replay's spans for the span file
		}
		off := int64(i) * int64(24*time.Hour)
		for j := range r.m.echoAt {
			r.m.echoAt[j] += off
		}
		for j := range r.m.burstAt {
			r.m.burstAt[j] += off
		}
		mr.replays = append(mr.replays, r)
		mr.m.merge(&r.m)
		mr.setup = append(mr.setup, r.setup)
		mr.cpu += r.cpu
		mr.datagrams += r.Datagrams
		mr.bytes += r.WireBytes
	}
	return mr, nil
}

// cpuUS and serverUS are the median over replays of the process's CPU,
// and the daemon calls' thread CPU, per keystroke.
func (mr *mobileRun) cpuUS() float64 {
	var v []float64
	for _, r := range mr.replays {
		v = append(v, perKeyUS(r.cpu, r.m.typed))
	}
	return median(v).Value
}

func (mr *mobileRun) serverUS() float64 {
	var v []float64
	for _, r := range mr.replays {
		v = append(v, perKeyUS(r.daemonCPU, r.m.typed))
	}
	return median(v).Value
}

func runMobileMetrics(o runOpts, traced bool, res *result) error {
	base, err := runMobile(o, false)
	if err != nil {
		return err
	}
	res.userMetrics(&base.m, base.setup, base.cpuUS(), base.serverUS(), maxRSSMB(), base.datagrams, base.bytes)
	v50, v99 := windowed(base.m.echoVirt, base.m.echoAt)
	res.extra["mobile.echo_virtual_p50_ms"] = metric{v50.Value, "ms"}
	res.extra["mobile.echo_virtual_p99_ms"] = metric{v99.Value, "ms"}
	res.record["replays"] = len(base.replays)
	if !traced {
		return nil
	}
	tr, err := runMobile(o, true)
	if err != nil {
		return err
	}
	pl, untraced, tracedCPU := res.traced(func() {
		res.userMetrics(&tr.m, tr.setup, tr.cpuUS(), tr.serverUS(), maxRSSMB(), tr.datagrams, tr.bytes)
	})
	k := float64(tr.m.typed)
	var (
		spans                 = spanSummary{Self: map[string]int64{}, Busy: map[string]int64{}, Count: map[string]int64{}}
		ov                    overlayTotals
		sSend, cSend          [4]int64
		ingress, egress, echo []float64
		queued, outstand      []float64
		drops, auth, inputs   int64
		sessionSeconds        float64
		last                  = tr.replays[len(tr.replays)-1]
	)
	for _, r := range tr.replays {
		for n, v := range r.spans.Self {
			spans.Self[n] += v
		}
		for n, v := range r.spans.Busy {
			spans.Busy[n] += v
		}
		for n, v := range r.spans.Count {
			spans.Count[n] += v
		}
		spans.Total += r.spans.Total
		ov.predicted += r.Overlay.Predicted
		ov.shown += r.Overlay.ShownImmediately
		ov.correct += r.Overlay.Correct
		ov.incorrect += r.Overlay.Incorrect
		for i := range sSend {
			sSend[i] += r.ServerSender[i]
			cSend[i] += r.ClientSender[i]
		}
		ingress = append(ingress, r.Ingress...)
		egress = append(egress, r.Egress...)
		echo = append(echo, r.Echo...)
		queued = append(queued, r.queued...)
		outstand = append(outstand, r.outstand...)
		drops += r.Drops
		auth += r.Auth
		inputs += r.inputs
		sessionSeconds += float64(len(r.Hashes)) * r.virtual.Seconds()
	}
	layerMetrics(pl, k, spans, spanSummary{}, ov, sSend, cSend, sessionSeconds)
	// No sockets, no reader goroutine, no journal in mobile.
	for n, unit := range map[string]string{
		"udpbatch.read_batch_mean": "count", "udpbatch.write_batch_mean": "count", "udpbatch.write_us": "us",
		"udpbatch.calls_per_datagram": "count", "sessiond.dispatch_us": "us", "sessiond.cpu_late_over_early": "ratio",
		"sessiond.journal_bytes_per_s": "bytes/s", "sessiond.journal_write_amp": "ratio",
	} {
		pl[n] = metric{0, unit}
	}
	pl["sessiond.ingress_ms_p50"] = metric{median(ingress).Value, "ms"}
	pl["sessiond.ingress_ms_p99"] = metric{tail(ingress, 0.99).Value, "ms"}
	pl["sessiond.egress_ms_p50"] = metric{median(egress).Value, "ms"}
	pl["sessiond.egress_ms_p99"] = metric{tail(egress, 0.99).Value, "ms"}
	pl["sessiond.echo_ms_p50"] = metric{median(echo).Value, "ms"}
	pl["sessiond.echo_ms_p99"] = metric{tail(echo, 0.99).Value, "ms"}
	pl["sessiond.resident_bytes_per_session"] = metric{float64(last.resident), "bytes"}
	pl["sessiond.queued_packets_p99"] = metric{tail(queued, 0.99).Value, "count"}
	pl["sessiond.outstanding_states_p99"] = metric{tail(outstand, 0.99).Value, "count"}
	pl["sessiond.drops"] = metric{float64(drops), "count"}
	pl["sessiond.auth_failures"] = metric{float64(auth), "count"}
	pl["host.inputs_per_keystroke"] = metric{ratio(float64(inputs), k), "ratio"}
	pl["trace.overhead_pct"] = metric{100 * ratio(tracedCPU-untraced, untraced), "%"}
	u := unaccounted(tr.cpu, spans)
	res.record["replays"] = len(tr.replays)
	pl["trace.unaccounted_pct.load"] = metric{u, "%"}
	pl["trace.unaccounted_pct.daemon"] = metric{u, "%"}
	typed, in := last.log.keys(spClientType), last.log.keys(spHostInput)
	joined := 0
	for key := range typed {
		if _, ok := in[key]; ok {
			joined++
		}
	}
	pl["trace.joined_pct"] = metric{100 * ratio(float64(joined), float64(len(typed))), "%"}
	dir := o.outDir + "/traces"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := last.log.writeFile(fmt.Sprintf("%s/mobile-%d.spans", dir, o.seed)); err != nil {
		return err
	}
	res.metrics = pl
	return nil
}
