package transport

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// protocolVersion identifies this wire format. Version 3 added the
// absolute-start-index prefix to user-stream diffs (crash-safe session
// resumption); a version-2 peer's diffs would misparse silently, so the
// bump makes mixed-version pairs fail loudly with ErrVersion instead.
const protocolVersion = 3

// Instruction is the transport layer's only message: a self-contained
// statement that "state NewNum is state OldNum plus this diff", along with
// acknowledgment (AckNum: the newest remote state we have received) and
// history trimming (ThrowawayNum: the receiver may discard every state
// numbered below it, because the sender will never again diff from them).
//
// On the receive path an Instruction and its Diff alias reused buffers
// (see assembly): Diff is valid only during processInstruction, and state
// implementations copy whatever they keep from it.
type Instruction struct {
	ProtocolVersion uint8
	OldNum          uint64
	NewNum          uint64
	AckNum          uint64
	ThrowawayNum    uint64
	Diff            []byte
}

var (
	// ErrBadInstruction marks a syntactically invalid instruction.
	ErrBadInstruction = errors.New("transport: malformed instruction")
	// ErrVersion marks an instruction from an incompatible peer.
	ErrVersion = errors.New("transport: unsupported protocol version")
)

// appendMarshal encodes the instruction onto buf: version byte, four
// uvarints, then the raw diff to the end of the buffer.
func (inst *Instruction) appendMarshal(buf []byte) []byte {
	buf = append(buf, inst.ProtocolVersion)
	buf = binary.AppendUvarint(buf, inst.OldNum)
	buf = binary.AppendUvarint(buf, inst.NewNum)
	buf = binary.AppendUvarint(buf, inst.AckNum)
	buf = binary.AppendUvarint(buf, inst.ThrowawayNum)
	buf = append(buf, inst.Diff...)
	return buf
}

// marshal encodes the instruction into a fresh buffer.
func (inst *Instruction) marshal() []byte {
	return inst.appendMarshal(make([]byte, 0, 1+4*binary.MaxVarintLen64+len(inst.Diff)))
}

// unmarshal decodes a buffer produced by marshal into inst. Diff aliases
// b.
func (inst *Instruction) unmarshal(b []byte) error {
	if len(b) < 5 {
		return ErrBadInstruction
	}
	*inst = Instruction{ProtocolVersion: b[0]}
	if inst.ProtocolVersion != protocolVersion {
		return fmt.Errorf("%w: %d", ErrVersion, inst.ProtocolVersion)
	}
	rest := b[1:]
	for _, dst := range [...]*uint64{&inst.OldNum, &inst.NewNum, &inst.AckNum, &inst.ThrowawayNum} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return ErrBadInstruction
		}
		*dst = v
		rest = rest[n:]
	}
	inst.Diff = rest
	return nil
}

// Compression. Like the reference implementation, instructions are
// zlib-compressed before fragmentation when that actually helps (screen
// repaints are full of runs and repeated escape sequences). A one-byte
// flag distinguishes the encodings.

const (
	encodingRaw  = 0
	encodingZlib = 1
	// compressThreshold skips compression for tiny instructions
	// (keystrokes, acks) where the zlib header would only add bytes.
	compressThreshold = 64
	// maxDecompressed bounds decompression output defensively; larger
	// streams are rejected.
	maxDecompressed = 16 << 20
	// maxRetainedBuffer bounds the receive-side buffers an endpoint keeps
	// for reuse after an unusually large instruction.
	maxRetainedBuffer = 64 << 10
)

// encodeInstruction marshals and, when profitable, compresses, into a
// fresh buffer. The sender's hot path goes through fragmenter.encode,
// which reuses scratch buffers instead.
func encodeInstruction(inst *Instruction) []byte {
	var fr fragmenter
	return fr.encode(inst)
}

// Deflate and inflate state is shared by every endpoint in the process
// instead of being held per sender and per receiver: a zlib writer is
// about half a megabyte, and an endpoint needs one only while it encodes
// or decodes an instruction.
var (
	deflaters freeList[*deflater]
	inflaters freeList[*inflater]
)

// freeList is a process-wide stack of reusable objects. Unlike sync.Pool
// it is not emptied by garbage collection, so reuse stays allocation-free
// in steady state; it holds as many objects as were ever in use at once.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x, ok = l.free[n-1], true
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// deflater is a zlib writer that appends to whichever buffer its current
// user lends it (dst), so the fragmenter deflates straight into reusable
// scratch and the pooled writer keeps no reference to a past user.
type deflater struct {
	zw  *zlib.Writer
	dst *[]byte
}

func (d *deflater) Write(p []byte) (int, error) {
	*d.dst = append(*d.dst, p...)
	return len(p), nil
}

// deflate appends the zlib stream of raw to *dst.
func deflate(dst *[]byte, raw []byte) {
	d, ok := deflaters.get()
	if !ok {
		d = &deflater{}
		d.zw = zlib.NewWriter(d)
	}
	d.dst = dst
	if ok {
		d.zw.Reset(d)
	}
	d.zw.Write(raw)
	d.zw.Close()
	d.dst = nil
	deflaters.put(d)
}

// inflater is a zlib reader over its own bytes.Reader, for the same
// reason.
type inflater struct {
	br bytes.Reader
	zr io.ReadCloser
	lr io.LimitedReader
}

// inflate replaces out's contents with the zlib stream in, rejecting
// streams that inflate beyond maxDecompressed bytes rather than truncating
// them.
func inflate(out *bytes.Buffer, in []byte) error {
	f, ok := inflaters.get()
	if !ok {
		f = &inflater{}
	}
	defer inflaters.put(f)
	f.br.Reset(in)
	defer f.br.Reset(nil)
	var err error
	if f.zr == nil {
		f.zr, err = zlib.NewReader(&f.br)
	} else {
		err = f.zr.(zlib.Resetter).Reset(&f.br, nil)
	}
	if err != nil {
		return err
	}
	// Read one byte past the limit so an oversized stream is caught.
	out.Reset()
	f.lr = io.LimitedReader{R: f.zr, N: maxDecompressed + 1}
	if _, err := out.ReadFrom(&f.lr); err != nil {
		return err
	}
	if out.Len() > maxDecompressed {
		return fmt.Errorf("decompresses beyond %d bytes", maxDecompressed)
	}
	return nil
}

// decodeInstruction reverses encodeInstruction into a fresh decoder. The
// receive path goes through assembly, which reuses one decoder.
func decodeInstruction(buf []byte) (*Instruction, error) {
	var d decoder
	return d.decode(buf)
}

// decoder reverses fragmenter.encode. It reuses its instruction and
// inflate buffer across calls: the Instruction decode returns, and its
// Diff (which aliases buf or the inflate buffer), are valid only until the
// next call.
type decoder struct {
	inst Instruction
	raw  bytes.Buffer
}

func (d *decoder) decode(buf []byte) (*Instruction, error) {
	if len(buf) < 1 {
		return nil, ErrBadInstruction
	}
	switch buf[0] {
	case encodingRaw:
		buf = buf[1:]
	case encodingZlib:
		if err := inflate(&d.raw, buf[1:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInstruction, err)
		}
		buf = d.raw.Bytes()
		if d.raw.Cap() > maxRetainedBuffer {
			d.raw = bytes.Buffer{} // the result still holds the big one
		}
	default:
		return nil, ErrBadInstruction
	}
	if err := d.inst.unmarshal(buf); err != nil {
		return nil, err
	}
	return &d.inst, nil
}

// Fragmentation. An instruction larger than the MTU is split into numbered
// fragments sharing an instruction id; the last fragment carries a final
// bit. Fragments of a newer instruction abandon any partial older one —
// SSP never needs the old instruction because a newer diff supersedes it.

const (
	fragmentHeaderLen = 8 + 2
	finalFragmentBit  = 0x8000
	// maxFragments bounds a single instruction's fragment count; combined
	// with the MTU this caps instruction size defensively.
	maxFragments = 1 << 14
)

// fragment is one wire piece of an instruction.
type fragment struct {
	id       uint64
	num      uint16
	final    bool
	contents []byte
}

// appendMarshal encodes the fragment onto dst.
func (f *fragment) appendMarshal(dst []byte) []byte {
	var hdr [fragmentHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:], f.id)
	num := f.num
	if f.final {
		num |= finalFragmentBit
	}
	binary.BigEndian.PutUint16(hdr[8:], num)
	dst = append(dst, hdr[:]...)
	return append(dst, f.contents...)
}

func (f *fragment) marshal() []byte {
	return f.appendMarshal(make([]byte, 0, fragmentHeaderLen+len(f.contents)))
}

func unmarshalFragment(b []byte) (*fragment, error) {
	if len(b) < fragmentHeaderLen {
		return nil, ErrBadInstruction
	}
	num := binary.BigEndian.Uint16(b[8:])
	return &fragment{
		id:       binary.BigEndian.Uint64(b),
		num:      num &^ finalFragmentBit,
		final:    num&finalFragmentBit != 0,
		contents: b[fragmentHeaderLen:],
	}, nil
}

// fragmenter splits instructions for transmission. Its scratch buffers are
// reused across calls: fragments returned by makeFragments (and their
// contents) are valid only until the next call, which is all the sender
// needs — each instruction's fragments are sealed and emitted before the
// next instruction exists.
type fragmenter struct {
	nextID uint64

	rawBuf    []byte     // marshalled instruction scratch
	encBuf    []byte     // encoded (flag + raw/deflate) payload scratch
	fragStore []fragment // fragment structs, reused
	fragPtrs  []*fragment
}

// encode marshals and, when profitable, compresses the instruction into
// the fragmenter's reusable scratch. The returned slice aliases encBuf.
func (fr *fragmenter) encode(inst *Instruction) []byte {
	fr.rawBuf = inst.appendMarshal(fr.rawBuf[:0])
	raw := fr.rawBuf
	if len(raw) >= compressThreshold {
		fr.encBuf = append(fr.encBuf[:0], encodingZlib)
		deflate(&fr.encBuf, raw)
		if len(fr.encBuf) < len(raw)+1 {
			return fr.encBuf
		}
	}
	fr.encBuf = append(append(fr.encBuf[:0], encodingRaw), raw...)
	return fr.encBuf
}

// makeFragments splits the marshalled instruction into fragments whose
// contents are at most mtu bytes each. The result aliases the fragmenter's
// scratch and is invalidated by the next call.
func (fr *fragmenter) makeFragments(inst *Instruction, mtu int) []*fragment {
	if mtu < 1 {
		mtu = 1
	}
	payload := fr.encode(inst)
	id := fr.nextID
	fr.nextID++
	fr.fragStore = fr.fragStore[:0]
	for num := 0; ; num++ {
		n := len(payload)
		if n > mtu {
			n = mtu
		}
		fr.fragStore = append(fr.fragStore, fragment{
			id:       id,
			num:      uint16(num),
			final:    n == len(payload),
			contents: payload[:n],
		})
		payload = payload[n:]
		if len(payload) == 0 {
			break
		}
	}
	fr.fragPtrs = fr.fragPtrs[:0]
	for i := range fr.fragStore {
		fr.fragPtrs = append(fr.fragPtrs, &fr.fragStore[i])
	}
	return fr.fragPtrs
}

// assembly reassembles fragments into instructions. It holds at most one
// instruction in progress; fragments from a newer id reset it.
//
// It allocates nothing per datagram in steady state. A single-fragment
// instruction (every keystroke) decodes in place from the fragment, which
// aliases the datagram layer's reused decrypt buffer; the contents of a
// multi-fragment instruction are copied into buf, because that decrypt
// buffer is overwritten by the next datagram. Either way the Instruction
// add returns, and its Diff, are valid only until the next call to add:
// Transport.Receive consumes them within processInstruction, and both
// State.Apply implementations copy whatever they keep.
type assembly struct {
	id     uint64
	active bool
	total  int    // fragment count once the final fragment is seen, else -1
	held   int    // fragments of the instruction in progress held so far
	parts  []span // by fragment number: where its contents sit in buf
	buf    []byte // held fragment contents, in arrival order
	joined []byte // buf in fragment order, when fragments arrived out of order
	dec    decoder
}

// span locates one held fragment's contents in assembly.buf.
type span struct {
	off, end int
	ok       bool
}

// add consumes one fragment; when it completes an instruction, the decoded
// instruction is returned.
func (a *assembly) add(f *fragment) (*Instruction, error) {
	if f.num >= maxFragments {
		return nil, ErrBadInstruction
	}
	if a.active && f.id < a.id {
		return nil, nil // stale fragment of an abandoned instruction
	}
	if f.num == 0 && f.final {
		a.id, a.active = f.id, false
		return a.dec.decode(f.contents)
	}
	if !a.active || f.id != a.id {
		a.id, a.active = f.id, true
		a.total, a.held = -1, 0
		clear(a.parts)
		a.parts = a.parts[:0]
		a.buf = a.buf[:0]
	}
	for len(a.parts) <= int(f.num) {
		a.parts = append(a.parts, span{})
	}
	if p := &a.parts[f.num]; !p.ok {
		*p = span{off: len(a.buf), end: len(a.buf) + len(f.contents), ok: true}
		a.buf = append(a.buf, f.contents...)
		a.held++
	}
	if f.final {
		a.total = int(f.num) + 1
	}
	if a.total < 0 || a.held < a.total {
		return nil, nil
	}
	next, inOrder := 0, true
	for _, p := range a.parts[:a.total] {
		if !p.ok {
			return nil, nil
		}
		inOrder = inOrder && p.off == next
		next = p.end
	}
	payload := a.buf[:next]
	if !inOrder {
		a.joined = a.joined[:0]
		for _, p := range a.parts[:a.total] {
			a.joined = append(a.joined, a.buf[p.off:p.end]...)
		}
		payload = a.joined
	}
	a.active = false
	if cap(a.buf) > maxRetainedBuffer || cap(a.joined) > maxRetainedBuffer {
		a.buf, a.joined = nil, nil // payload still holds its own
	}
	return a.dec.decode(payload)
}
