package sspcrypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testSession(t testing.TB) *Session {
	t.Helper()
	var key Key
	for i := range key {
		key[i] = byte(i * 7)
	}
	s, err := NewSession(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := testSession(t)
	for _, dir := range []Direction{ToServer, ToClient} {
		pkt, err := s.Encrypt(dir, 42, []byte("keystroke"))
		if err != nil {
			t.Fatal(err)
		}
		gotDir, seq, pt, err := s.Decrypt(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if gotDir != dir || seq != 42 || string(pt) != "keystroke" {
			t.Fatalf("got dir=%v seq=%d pt=%q", gotDir, seq, pt)
		}
	}
}

func TestDirectionsDoNotCollide(t *testing.T) {
	s := testSession(t)
	a, _ := s.Encrypt(ToServer, 7, []byte("same"))
	b, _ := s.Encrypt(ToClient, 7, []byte("same"))
	if bytes.Equal(a[8:], b[8:]) {
		t.Fatal("same seq in both directions produced identical ciphertext")
	}
}

func TestTamperedHeaderRejected(t *testing.T) {
	s := testSession(t)
	pkt, _ := s.Encrypt(ToServer, 9, []byte("hello"))
	pkt[3] ^= 0x40 // corrupt sequence header; nonce/AD check must fail
	if _, _, _, err := s.Decrypt(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestTamperedBodyRejected(t *testing.T) {
	s := testSession(t)
	pkt, _ := s.Encrypt(ToServer, 9, []byte("hello"))
	pkt[10] ^= 1
	if _, _, _, err := s.Decrypt(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	s := testSession(t)
	other, err := NewSession(Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := s.Encrypt(ToClient, 1, []byte("x"))
	if _, _, _, err := other.Decrypt(pkt); err != ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
}

func TestShortPacket(t *testing.T) {
	s := testSession(t)
	if _, _, _, err := s.Decrypt(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestSeqRange(t *testing.T) {
	s := testSession(t)
	if _, err := s.Encrypt(ToServer, MaxSeq+1, nil); err != ErrSeqRange {
		t.Fatalf("err = %v, want ErrSeqRange", err)
	}
	pkt, err := s.Encrypt(ToServer, MaxSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, _, err := s.Decrypt(pkt)
	if err != nil || seq != MaxSeq {
		t.Fatalf("max seq round trip: seq=%d err=%v", seq, err)
	}
}

func TestKeyBase64RoundTrip(t *testing.T) {
	k, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	enc := k.Base64()
	if len(enc) != 22 {
		t.Fatalf("encoded key %q has length %d, want 22", enc, len(enc))
	}
	back, err := KeyFromBase64(enc)
	if err != nil || back != k {
		t.Fatalf("round trip failed: %v", err)
	}
	// Padded form must also parse (users paste both).
	back, err = KeyFromBase64(enc + "==")
	if err != nil || back != k {
		t.Fatalf("padded round trip failed: %v", err)
	}
}

func TestKeyFromBase64Errors(t *testing.T) {
	if _, err := KeyFromBase64("!!!"); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := KeyFromBase64("AAAA"); err == nil {
		t.Fatal("accepted short key")
	}
}

func TestRandomKeysDiffer(t *testing.T) {
	a, _ := NewRandomKey()
	b, _ := NewRandomKey()
	if a == b {
		t.Fatal("two random keys identical")
	}
}

func TestEncryptDecryptProperty(t *testing.T) {
	s := testSession(t)
	f := func(payload []byte, seq uint64, toClient bool) bool {
		seq &= MaxSeq
		dir := ToServer
		if toClient {
			dir = ToClient
		}
		pkt, err := s.Encrypt(dir, seq, payload)
		if err != nil {
			return false
		}
		gotDir, gotSeq, pt, err := s.Decrypt(pkt)
		return err == nil && gotDir == dir && gotSeq == seq && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncryptDatagram(b *testing.B) {
	s := testSession(b)
	payload := make([]byte, 200) // typical SSP instruction size
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(ToClient, uint64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenAppendAllocFree guards the receive side's decrypt: opening into
// a caller-owned buffer that has grown to the datagram size allocates
// nothing, mirroring SealAppend on the send side.
func TestOpenAppendAllocFree(t *testing.T) {
	s := testSession(t)
	pkt, err := s.Encrypt(ToServer, 7, bytes.Repeat([]byte("k"), 1200))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1500)
	allocs := testing.AllocsPerRun(200, func() {
		_, _, pt, err := s.OpenAppend(buf[:0], pkt)
		if err != nil || len(pt) != 1200 {
			t.Fatalf("open: %d bytes, %v", len(pt), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("OpenAppend allocates %.1f times per datagram, want 0", allocs)
	}
}
