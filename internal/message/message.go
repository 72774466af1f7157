// Package message implements the x-Kernel-style message abstraction used
// throughout the protocol stack.
//
// A Message is a byte payload onto which each protocol layer pushes its
// header on the way down the stack and from which each layer pops its header
// on the way up. Messages also carry out-of-band attributes (a small typed
// map) so layers and the PFI tool can annotate packets without touching the
// wire bytes, and a monotone ID so traces can follow one packet through
// clone/duplicate operations.
package message

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

var lastID atomic.Uint64

// ID uniquely identifies a message within a process. Clones receive fresh
// IDs but remember their origin.
type ID uint64

// Message is a mutable packet travelling through a protocol stack. The zero
// value is not useful; use New.
type Message struct {
	id     ID
	origin ID // ID of the message this one was cloned from, or its own ID
	buf    []byte
	attrs  map[string]any
}

// New builds a message whose payload is a copy of data.
func New(data []byte) *Message {
	id := ID(lastID.Add(1))
	m := &Message{id: id, origin: id}
	if len(data) > 0 {
		m.buf = append(m.buf, data...)
	}
	return m
}

// NewString builds a message from a string payload.
func NewString(s string) *Message { return New([]byte(s)) }

// ID returns the message's unique identifier.
func (m *Message) ID() ID { return m.id }

// Origin returns the ID of the message this one was cloned from; for an
// original message it equals ID().
func (m *Message) Origin() ID { return m.origin }

// Len returns the current total length in bytes (headers + payload).
func (m *Message) Len() int { return len(m.buf) }

// Bytes returns the message contents. The slice aliases internal storage;
// callers must not retain it across mutations.
func (m *Message) Bytes() []byte { return m.buf }

// CopyBytes returns an independent copy of the message contents.
func (m *Message) CopyBytes() []byte {
	out := make([]byte, len(m.buf))
	copy(out, m.buf)
	return out
}

// Clone returns a deep copy with a fresh ID but the same origin chain.
// Attributes are shallow-copied key-by-key.
func (m *Message) Clone() *Message {
	c := &Message{
		id:     ID(lastID.Add(1)),
		origin: m.origin,
		buf:    append([]byte(nil), m.buf...),
	}
	if m.attrs != nil {
		c.attrs = make(map[string]any, len(m.attrs))
		for k, v := range m.attrs {
			c.attrs[k] = v
		}
	}
	return c
}

// State is a saved copy of a message's mutable content (payload bytes and
// attributes). The identity fields (ID, Origin) are immutable and excluded.
// World snapshots use it to rewind in-flight and held messages in place:
// the *Message pointer — captured by delivery closures and retransmission
// queues — stays the same, only its content rolls back.
type State struct {
	buf   []byte
	attrs map[string]any
}

// SaveState captures the message's current content.
func (m *Message) SaveState() State {
	st := State{buf: append([]byte(nil), m.buf...)}
	if m.attrs != nil {
		st.attrs = make(map[string]any, len(m.attrs))
		for k, v := range m.attrs {
			st.attrs[k] = v
		}
	}
	return st
}

// RestoreState rewinds the message to a previously saved content. The saved
// state stays valid for repeated restores.
func (m *Message) RestoreState(st State) {
	m.buf = append(m.buf[:0], st.buf...)
	if st.attrs == nil {
		m.attrs = nil
		return
	}
	m.attrs = make(map[string]any, len(st.attrs))
	for k, v := range st.attrs {
		m.attrs[k] = v
	}
}

// Push prepends hdr to the message, growing it by len(hdr). This is the
// action a layer takes when sending a message down the stack.
func (m *Message) Push(hdr []byte) {
	if len(hdr) == 0 {
		return
	}
	m.buf = append(m.buf, make([]byte, len(hdr))...)
	copy(m.buf[len(hdr):], m.buf[:len(m.buf)-len(hdr)])
	copy(m.buf, hdr)
}

// Pop removes and returns the first n bytes (a layer's header) on the way up
// the stack. It fails if the message is shorter than n.
func (m *Message) Pop(n int) ([]byte, error) {
	if n < 0 || n > len(m.buf) {
		return nil, fmt.Errorf("message: pop %d bytes from %d-byte message", n, len(m.buf))
	}
	hdr := make([]byte, n)
	copy(hdr, m.buf[:n])
	m.buf = m.buf[:copy(m.buf, m.buf[n:])]
	return hdr, nil
}

// Peek returns a copy of the first n bytes without consuming them.
func (m *Message) Peek(n int) ([]byte, error) {
	if n < 0 || n > len(m.buf) {
		return nil, fmt.Errorf("message: peek %d bytes from %d-byte message", n, len(m.buf))
	}
	hdr := make([]byte, n)
	copy(hdr, m.buf[:n])
	return hdr, nil
}

// SetByte overwrites the byte at offset off — the primitive behind message
// corruption faults.
func (m *Message) SetByte(off int, b byte) error {
	if off < 0 || off >= len(m.buf) {
		return fmt.Errorf("message: set byte at %d in %d-byte message", off, len(m.buf))
	}
	m.buf[off] = b
	return nil
}

// ByteAt returns the byte at offset off.
func (m *Message) ByteAt(off int) (byte, error) {
	if off < 0 || off >= len(m.buf) {
		return 0, fmt.Errorf("message: byte at %d in %d-byte message", off, len(m.buf))
	}
	return m.buf[off], nil
}

// Truncate shortens the message to n bytes.
func (m *Message) Truncate(n int) error {
	if n < 0 || n > len(m.buf) {
		return fmt.Errorf("message: truncate to %d bytes from %d", n, len(m.buf))
	}
	m.buf = m.buf[:n]
	return nil
}

// SetAttr attaches an out-of-band attribute. Attributes travel with the
// message through the local stack but are not serialized onto the wire.
func (m *Message) SetAttr(key string, value any) {
	if m.attrs == nil {
		m.attrs = make(map[string]any)
	}
	m.attrs[key] = value
}

// Attr reads an out-of-band attribute.
func (m *Message) Attr(key string) (any, bool) {
	v, ok := m.attrs[key]
	return v, ok
}

// String renders a short diagnostic form.
func (m *Message) String() string {
	n := len(m.buf)
	if n <= 16 {
		return fmt.Sprintf("msg#%d(%d bytes % x)", m.id, n, m.buf)
	}
	return fmt.Sprintf("msg#%d(%d bytes % x…)", m.id, n, m.buf[:16])
}

// Writer builds headers field by field in network byte order. It is a
// convenience for protocol codecs.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// U8 appends a byte.
func (w *Writer) U8(v uint8) *Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// Bytes appends raw bytes.
func (w *Writer) Bytes(p []byte) *Writer { w.buf = append(w.buf, p...); return w }

// Done returns the accumulated header.
func (w *Writer) Done() []byte { return w.buf }

// Reader consumes headers field by field in network byte order. Errors are
// sticky: after the first short read every subsequent call returns zero and
// Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps p for reading. The reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("message: short read: need %d bytes, have %d", n, len(r.buf)-r.off)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Take reads n raw bytes (aliasing the underlying buffer).
func (r *Reader) Take(n int) []byte { return r.take(n) }
