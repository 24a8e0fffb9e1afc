// Package sspcrypto provides SSP's packet encryption: AES-128-OCB under a
// single shared session key, with the 64-bit packet sequence number (plus a
// direction bit) serving as the unique nonce. Key exchange happens
// out-of-band (the paper bootstraps over SSH), so the package deliberately
// contains no handshake — just key generation/encoding and authenticated
// packet sealing.
//
// Because each datagram is an idempotent state diff, SSP needs no replay
// cache: the datagram layer simply discards packets whose sequence number
// is not newer than the newest seen (see internal/network).
package sspcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ocb"
)

// KeySize is the AES-128 key length in bytes.
const KeySize = 16

// Direction marks which endpoint sealed a packet. It is folded into the
// nonce's top bit so the two directions of a session can never collide on a
// nonce even though they share one key.
type Direction uint8

const (
	// ToServer marks client→server packets.
	ToServer Direction = 0
	// ToClient marks server→client packets.
	ToClient Direction = 1
)

func (d Direction) String() string {
	if d == ToServer {
		return "to-server"
	}
	return "to-client"
}

// directionBit is the top bit of the 64-bit sequence field.
const directionBit = uint64(1) << 63

// MaxSeq is the largest usable sequence number; the top bit carries the
// direction.
const MaxSeq = directionBit - 1

// Key is a 128-bit session key.
type Key [KeySize]byte

// NewRandomKey generates a key from the operating system's CSPRNG.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("sspcrypto: generating key: %w", err)
	}
	return k, nil
}

// Base64 encodes the key the way the mosh-server program prints it for the
// bootstrap script (unpadded standard base64, 22 characters).
func (k Key) Base64() string {
	return base64.RawStdEncoding.EncodeToString(k[:])
}

// KeyFromBytes parses a raw 16-byte key (the session-journal codec stores
// keys in binary rather than base64).
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeySize {
		return Key{}, fmt.Errorf("sspcrypto: key is %d bytes, want %d", len(b), KeySize)
	}
	var k Key
	copy(k[:], b)
	return k, nil
}

// KeyFromBase64 parses a key printed by Base64. Padded input is accepted.
func KeyFromBase64(s string) (Key, error) {
	for len(s) > 0 && s[len(s)-1] == '=' {
		s = s[:len(s)-1]
	}
	raw, err := base64.RawStdEncoding.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("sspcrypto: decoding key: %w", err)
	}
	if len(raw) != KeySize {
		return Key{}, fmt.Errorf("sspcrypto: key is %d bytes, want %d", len(raw), KeySize)
	}
	var k Key
	copy(k[:], raw)
	return k, nil
}

// Errors returned by Decrypt.
var (
	ErrAuth     = errors.New("sspcrypto: packet failed authentication")
	ErrTooShort = errors.New("sspcrypto: packet too short")
	ErrSeqRange = errors.New("sspcrypto: sequence number out of range")
)

// Session seals and opens SSP datagrams under one key. A Session is not
// safe for concurrent use; each endpoint owns one.
type Session struct {
	aead cipher.AEAD
	// nonce is scratch space reused across packets; the nonce contents are
	// fully rewritten from the header each call.
	nonce [12]byte
}

// NewSession builds a session from a key.
func NewSession(key Key) (*Session, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sspcrypto: %w", err)
	}
	aead, err := ocb.New(block)
	if err != nil {
		return nil, err
	}
	return &Session{aead: aead}, nil
}

// Overhead is the per-packet expansion: 8-byte sequence header plus the
// 16-byte authenticator.
func (s *Session) Overhead() int { return 8 + s.aead.Overhead() }

func (s *Session) nonceFor(header uint64) []byte {
	binary.BigEndian.PutUint64(s.nonce[4:], header)
	return s.nonce[:]
}

// Encrypt seals plaintext as a wire packet: an 8-byte big-endian header
// (direction bit | sequence number) followed by the OCB ciphertext+tag.
// The header doubles as the nonce and is authenticated as associated data.
func (s *Session) Encrypt(dir Direction, seq uint64, plaintext []byte) ([]byte, error) {
	return s.SealAppend(nil, dir, seq, plaintext)
}

// SealAppend is Encrypt appending the sealed packet to dst, so callers that
// recycle wire buffers (the transport sender's fragment pool) avoid a fresh
// allocation per datagram.
func (s *Session) SealAppend(dst []byte, dir Direction, seq uint64, plaintext []byte) ([]byte, error) {
	if seq > MaxSeq {
		return nil, ErrSeqRange
	}
	header := seq
	if dir == ToClient {
		header |= directionBit
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(dst[start:], header)
	return s.aead.Seal(dst, s.nonceFor(header), plaintext, dst[start:start+8]), nil
}

// Decrypt opens a wire packet, returning its direction, sequence number
// and plaintext. Inauthentic packets yield ErrAuth and no plaintext.
func (s *Session) Decrypt(packet []byte) (Direction, uint64, []byte, error) {
	return s.OpenAppend(nil, packet)
}

// OpenAppend is Decrypt appending the plaintext to dst, so a receiver that
// owns one buffer per connection (network.Connection) opens every datagram
// without an allocation once the buffer has grown to the path's MTU.
func (s *Session) OpenAppend(dst, packet []byte) (Direction, uint64, []byte, error) {
	if len(packet) < 8+s.aead.Overhead() {
		return 0, 0, nil, ErrTooShort
	}
	header := binary.BigEndian.Uint64(packet[:8])
	dir := ToServer
	if header&directionBit != 0 {
		dir = ToClient
	}
	pt, err := s.aead.Open(dst, s.nonceFor(header), packet[8:], packet[:8])
	if err != nil {
		return 0, 0, nil, ErrAuth
	}
	return dir, header &^ directionBit, pt, nil
}
