package transport

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
)

// zlibEncoded deflates raw behind the zlib encoding flag, as
// fragmenter.encode does for large instructions.
func zlibEncoded(t testing.TB, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteByte(encodingZlib)
	zw := zlib.NewWriter(&b)
	zw.Write(raw)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDecodeInstructionRejectsZlibBomb: a compressed instruction that
// inflates one byte past maxDecompressed is rejected, not truncated to the
// limit and then parsed; one that inflates to exactly the limit decodes.
func TestDecodeInstructionRejectsZlibBomb(t *testing.T) {
	hdr := (&Instruction{ProtocolVersion: protocolVersion, OldNum: 1, NewNum: 2}).marshal()
	atLimit := append(hdr, make([]byte, maxDecompressed-len(hdr))...)
	out, err := decodeInstruction(zlibEncoded(t, atLimit))
	if err != nil || out.NewNum != 2 || len(out.Diff) != maxDecompressed-len(hdr) {
		t.Fatalf("instruction at the limit: err=%v", err)
	}
	bomb := append(atLimit, 0)
	enc := zlibEncoded(t, bomb)
	if len(enc) > 1<<16 {
		t.Fatalf("bomb encodes to %d bytes; the test wants a small one", len(enc))
	}
	if _, err := decodeInstruction(enc); !errors.Is(err, ErrBadInstruction) {
		t.Fatalf("bomb one byte over the limit: err=%v, want ErrBadInstruction", err)
	}
}

// appendKeystrokeDiff appends the user-stream diff of one keystroke added
// to a stream of size events.
func appendKeystrokeDiff(buf []byte, size uint64, key byte) []byte {
	buf = binary.AppendUvarint(buf, size)
	return append(binary.AppendUvarint(buf, 1), byte(statesync.EventBytes), 1, key)
}

// TestSingleFragmentDecodeAllocFree guards the receive side's reassembly:
// a single-fragment instruction (every keystroke) is parsed and decoded in
// place from the datagram, with no per-instruction map, buffer or
// Instruction allocation.
func TestSingleFragmentDecodeAllocFree(t *testing.T) {
	var fr fragmenter
	in := &Instruction{ProtocolVersion: protocolVersion, OldNum: 4, NewNum: 5, AckNum: 3, ThrowawayNum: 4,
		Diff: appendKeystrokeDiff(nil, 41, 'x')}
	frags := fr.makeFragments(in, 1200)
	if len(frags) != 1 {
		t.Fatalf("keystroke instruction took %d fragments", len(frags))
	}
	wire := frags[0].marshal()
	var a assembly
	allocs := testing.AllocsPerRun(200, func() {
		f, err := unmarshalFragment(wire)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.add(f)
		if err != nil || out == nil || out.NewNum != 5 || !bytes.Equal(out.Diff, in.Diff) {
			t.Fatalf("decode: %+v, %v", out, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("single-fragment decode allocates %.1f times per datagram, want 0", allocs)
	}
}

// TestUserStreamReceiveAllocsAgeInvariant guards the server's per-keystroke
// reconstruction: cloning the source state and applying a one-keystroke
// diff, then trimming delivered history, costs at most one allocation (the
// keystroke's own bytes) whether the session is 10² or 10⁴ events old.
// Before the trim, every clone copied the whole history.
func TestUserStreamReceiveAllocsAgeInvariant(t *testing.T) {
	const maxAllocs = 1
	r := newReceiver(statesync.NewUserStream())
	num, size := uint64(0), uint64(0)
	inst := mkInst(0, 0, 0, nil)
	receive := func() {
		inst.OldNum, inst.NewNum, inst.ThrowawayNum = num, num+1, num
		inst.Diff = appendKeystrokeDiff(inst.Diff[:0], size, 'a'+byte(num%26))
		if isNew, err := r.processInstruction(inst); err != nil || !isNew {
			t.Fatalf("state %d: isNew=%v err=%v", num+1, isNew, err)
		}
		r.subtractOldest()
		num, size = num+1, size+1
	}
	for _, age := range []uint64{100, 10000} {
		for size < age {
			receive()
		}
		allocs := testing.AllocsPerRun(100, receive)
		if allocs > maxAllocs {
			t.Errorf("at age %d: receive of one keystroke allocates %.1f times, want <= %d", age, allocs, maxAllocs)
		}
		retained := 0
		for i := 0; i < r.StateCount(); i++ {
			retained += len(r.State(i).EventsSince(0))
		}
		if retained > 2 {
			t.Errorf("at age %d: receiver retains %d events across %d states", age, retained, r.StateCount())
		}
	}
}

// streamReceiver is one side of the trim differential: a receiver plus
// what it has delivered, driven exactly as core.Server.Receive drives the
// server's receiver.
type streamReceiver struct {
	r         *Receiver[*statesync.UserStream]
	trim      bool
	delivered uint64
	log       []statesync.Event
}

func (s *streamReceiver) receive(inst *Instruction) (bool, error) {
	isNew, err := s.r.processInstruction(inst)
	if isNew {
		st := s.r.Latest()
		s.log = append(s.log, st.EventsSince(s.delivered)...)
		s.delivered = st.Size()
		if s.trim {
			s.r.subtractOldest()
		}
	}
	return isNew, err
}

// FuzzUserStreamReceiveTrim is a differential check of delivered-history
// trimming: a program of keystrokes, resizes, instructions from any
// retained source (state 0 included, so the pristine fallback runs),
// duplicates and acknowledgments is fed to a trimming receiver and to an
// untrimmed reference. With resumed set, both start as journal-restored
// receivers at a cut through the history, so instructions from states
// they never held take the ApplyUnknownBase path with acknowledged and
// unacknowledged sources. Both must agree at every step and deliver the
// stream's events exactly once, in order.
func FuzzUserStreamReceiveTrim(f *testing.F) {
	// Typing with acks, a duplicate, a two-state jump, and a pristine
	// state-0 resynchronization after state 0 was retired.
	f.Add([]byte{0, 'a', 1, 0, 1, 3, 0, 'b', 1, 0, 1, 3, 0, 'c', 1, 0, 1, 2, 3,
		0, 'd', 0, 'e', 1, 0, 2, 0, 'f', 5, 0, 6, 1, 1, 0, 3}, false)
	// A resize among keystrokes, instructions from stale sources.
	f.Add([]byte{0, 'x', 0, 0x81, 1, 0, 2, 0, 'y', 1, 1, 1, 3, 0, 'z', 1, 0, 0, 2, 1, 0, 1}, false)
	// Resumed at state 3 with state 2 acknowledged: an acknowledged
	// unknown source, the restored state itself, an unacknowledged
	// unknown source, then normal typing.
	f.Add([]byte{5, 3, 2, 1, 0, 3, 0, 'f', 1, 2, 2, 3, 0, 'g', 1, 0, 1, 2, 5, 0, 7}, true)
	f.Add([]byte{9, 9, 0, 1, 2, 0, 'r', 1, 8, 3, 1, 1, 2}, true)
	f.Fuzz(func(t *testing.T, prog []byte, resumed bool) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		live := statesync.NewUserStream()
		hist := []*statesync.UserStream{live.Clone()} // hist[n] is state number n
		push := func(b byte) {
			if b&0x80 != 0 {
				live.PushResize(int(b&0x7f)+1, 24)
			} else {
				live.PushBytes([]byte{b})
			}
			hist = append(hist, live.Clone())
		}

		ref := &streamReceiver{}
		trim := &streamReceiver{trim: true}
		var throwaway uint64
		var delivered0 uint64 // events the dead incarnation delivered
		if resumed {
			for n := int(next() % 16); n > 0; n-- {
				push('a' + byte(n))
			}
			cut := uint64(next()) % uint64(len(hist))
			throwaway = uint64(next()) % (cut + 1) // the sender's acked baseline
			delivered0 = hist[cut].Size()
			for _, s := range []*streamReceiver{ref, trim} {
				s.r = newResumedReceiver(statesync.RestoreUserStream(delivered0), cut)
				s.delivered = delivered0
			}
		} else {
			ref.r = newReceiver(statesync.NewUserStream())
			trim.r = newReceiver(statesync.NewUserStream())
		}

		var last *Instruction
		feed := func(inst *Instruction) {
			rNew, rErr := ref.receive(inst)
			tNew, tErr := trim.receive(inst)
			if rNew != tNew || (rErr == nil) != (tErr == nil) {
				t.Fatalf("instruction %d→%d: reference (%v, %v), trimmed (%v, %v)",
					inst.OldNum, inst.NewNum, rNew, rErr, tNew, tErr)
			}
			if ref.r.LatestNum() != trim.r.LatestNum() || ref.delivered != trim.delivered {
				t.Fatalf("diverged: latest %d vs %d, delivered %d vs %d",
					ref.r.LatestNum(), trim.r.LatestNum(), ref.delivered, trim.delivered)
			}
			last = inst
		}
		for len(prog) > 0 {
			switch op := next(); op % 4 {
			case 0:
				push(next())
			case 1:
				// The sender diffs from any state at or after its acked
				// baseline, or from the agreed state 0.
				n := uint64(len(hist))
				src := throwaway + uint64(next())%(n-throwaway)
				if op&4 != 0 {
					src = 0
				}
				tgt := src + uint64(next())%(n-src)
				feed(mkInst(src, tgt, throwaway, hist[tgt].DiffFrom(hist[src])))
			case 2:
				if last != nil {
					feed(last)
				}
			case 3:
				// The receiver's newest state is acknowledged; a resumed
				// receiver's restored state counts too (the journal
				// proves its receipt).
				if n := ref.r.LatestNum(); n > throwaway {
					throwaway = n
				}
			}
		}

		if len(ref.log) != len(trim.log) {
			t.Fatalf("delivered %d events (reference) vs %d (trimmed)", len(ref.log), len(trim.log))
		}
		for i, ev := range trim.log {
			want := live.EventsSince(delivered0 + uint64(i))[0]
			if ev.Type != want.Type || !bytes.Equal(ev.Data, want.Data) || ev.W != want.W ||
				!bytes.Equal(ref.log[i].Data, want.Data) || ref.log[i].W != want.W {
				t.Fatalf("event %d delivered as %+v / %+v, want %+v",
					delivered0+uint64(i), ev, ref.log[i], want)
			}
		}
	})
}

// FuzzFragmentReassemblyAcrossBufferReuse: a multi-fragment instruction
// whose datagrams arrive out of order, interleaved with datagrams that
// overwrite the connection's decrypt buffer (forgeries, replays, stale and
// duplicate fragments), still reassembles byte-exactly — its fragments are
// copied out of the decrypt buffer before the next datagram is opened.
func FuzzFragmentReassemblyAcrossBufferReuse(f *testing.F) {
	f.Add([]byte("seed"), uint8(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0x10}, uint8(200), []byte{3, 3, 2, 2, 1, 1, 0, 0})
	f.Add([]byte("abcdefgh"), uint8(37), []byte{7, 1, 6, 2, 5, 3, 4})
	f.Fuzz(func(t *testing.T, seed []byte, mtuSel uint8, noise []byte) {
		clk := simclock.NewManual(t0)
		key := sspcrypto.Key{9, 9}
		rx, err := New(Config[*textState, *textState]{
			Direction: sspcrypto.ToClient, Key: key, Clock: clk,
			LocalInitial: newText(), RemoteInitial: newText(), Emit: func([]byte) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := network.NewConnection(network.Config{Direction: sspcrypto.ToServer, Key: key, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		seal := func(f *fragment) []byte {
			w, err := tx.NewPacket(f.marshal())
			if err != nil {
				t.Fatal(err)
			}
			return w
		}

		// An incompressible diff several MTUs long, derived from seed.
		diff := make([]byte, 2500+int(mtuSel)*16)
		x := uint32(2166136261)
		for _, b := range seed {
			x = (x ^ uint32(b)) * 16777619
		}
		for i := range diff {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			diff[i] = byte(x)
		}
		mtu := 200 + int(mtuSel)*4
		var fr fragmenter
		stale := copyFragments(fr.makeFragments(mkInst(0, 1, 0, diff[:mtu*2]), mtu))
		frags := copyFragments(fr.makeFragments(mkInst(0, 1, 0, diff), mtu))
		if len(frags) < 2 {
			t.Fatalf("diff of %d bytes at mtu %d took one fragment", len(diff), mtu)
		}

		// Deliver the fragments in an order drawn from noise, each but the
		// first followed by a noise datagram.
		order := make([]int, len(frags))
		for i := range order {
			order[i] = i
		}
		for i, b := range noise {
			j := i % len(order)
			k := int(b) % len(order)
			order[j], order[k] = order[k], order[j]
		}
		var accepted [][]byte
		for i, idx := range order {
			if i > 0 && len(noise) > 0 {
				b := noise[i%len(noise)]
				var junk []byte
				switch b % 4 {
				case 0: // forgery: fails authentication after decrypting
					junk = bytes.Repeat([]byte{b}, 64+int(b)*4)
				case 1: // replay of an accepted datagram
					junk = accepted[int(b)%len(accepted)]
				case 2: // fragment of an older, abandoned instruction
					junk = seal(stale[int(b)%len(stale)])
				case 3: // duplicate of a fragment already held or yet to come
					junk = seal(frags[int(b)%len(frags)])
				}
				rx.Receive(junk, netem.Addr{Host: 1})
			}
			w := seal(frags[idx])
			accepted = append(accepted, w)
			rx.Receive(w, netem.Addr{Host: 1})
		}
		if rx.RemoteStateNum() != 1 || !bytes.Equal(rx.RemoteState().data, diff) {
			t.Fatalf("reassembled %d bytes (state %d), want the %d-byte diff byte-exact",
				len(rx.RemoteState().data), rx.RemoteStateNum(), len(diff))
		}
	})
}

// TestZlibStateSharedAcrossGoroutines: endpoints on different goroutines
// (sessiond's workers) take deflate and inflate state from the shared free
// lists at once; every round trip must stay byte-exact. Run under -race.
func TestZlibStateSharedAcrossGoroutines(t *testing.T) {
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var fr fragmenter
			var d decoder
			for i := 0; i < rounds; i++ {
				diff := bytes.Repeat([]byte{byte('a' + w), byte(i)}, 200+i)
				in := mkInst(uint64(i), uint64(i+1), 0, diff)
				enc := fr.encode(in)
				if enc[0] != encodingZlib {
					errs <- fmt.Errorf("worker %d: repetitive instruction not compressed", w)
					return
				}
				out, err := d.decode(enc)
				if err != nil || out.NewNum != in.NewNum || !bytes.Equal(out.Diff, diff) {
					errs <- fmt.Errorf("worker %d round %d: round trip failed: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
