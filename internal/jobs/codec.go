package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
)

// The clone encoding. Every clone has exactly one: Decode accepts only
// what Encode writes, so Encode(Decode(b)) == b, and a content address
// may hash the submitted bytes. In order:
//
//	magic   "FPJ\x01"
//	header  Name, Program.Name (a content address leaves these out)
//	body    Program.Base, Program.DataBase, the instruction count, then
//	        per instruction Op, Rd, Rs1, Rs2, Rs3, Imm, Sym; Program.Data;
//	        the Env count, then per entry key and value, keys strictly
//	        ascending; MemBytes
//
// Imm and MemBytes are zigzag varints (binary.AppendVarint), register
// fields one byte each, and every other number a minimal unsigned
// varint. A string or Data is its length and then its bytes.
const magic = "FPJ\x01"

// minInstBytes is the smallest encoded instruction: a one-byte Op, four
// register bytes, a one-byte Imm and an empty Sym.
const minInstBytes = 7

// ErrFormat reports bytes that are not the encoding of a clone.
var ErrFormat = errors.New("jobs: not a clone encoding")

// Encode serializes the clone for storage (the paper's offline-analysis
// hand-off) in the one encoding it has. It does not validate; Decode
// does. A nil Program encodes as an empty one, which Decode rejects.
// The error is always nil.
func (j *Job) Encode() ([]byte, error) {
	p := j.Program
	if p == nil {
		p = &isa.Program{}
	}
	keys := make([]string, 0, len(j.Env))
	size := len(magic) + 8*binary.MaxVarintLen64 + len(j.Name) + len(p.Name) + 12*len(p.Insts) + len(p.Data)
	for k, v := range j.Env {
		keys = append(keys, k)
		size += len(k) + len(v) + 4
	}
	sort.Strings(keys)

	b := make([]byte, 0, size)
	b = append(b, magic...)
	b = appendBytes(b, j.Name)
	b = appendBytes(b, p.Name)
	b = binary.AppendUvarint(b, p.Base)
	b = binary.AppendUvarint(b, p.DataBase)
	b = binary.AppendUvarint(b, uint64(len(p.Insts)))
	for i := range p.Insts {
		in := &p.Insts[i]
		b = binary.AppendUvarint(b, uint64(in.Op))
		b = append(b, in.Rd, in.Rs1, in.Rs2, in.Rs3)
		b = binary.AppendVarint(b, in.Imm)
		b = appendBytes(b, in.Sym)
	}
	b = appendBytes(b, p.Data)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendBytes(b, k)
		b = appendBytes(b, j.Env[k])
	}
	return binary.AppendVarint(b, int64(j.MemBytes)), nil
}

func appendBytes[S string | []byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Decode reconstructs a submission clone. The input is untrusted (it
// typically arrives over the fpspyd wire): Decode checks every count
// against the bytes left before it allocates, accepts nothing but the
// one encoding of a clone (ErrFormat otherwise), and validates the
// clone before returning it, so garbage that happens to parse does not
// flow onward into RunProduction or Replay.
func Decode(data []byte) (*Job, error) {
	r := reader{b: data}
	r.magic()
	j := &Job{Name: r.str()}
	p := &isa.Program{Name: r.str()}
	j.Program = p
	p.Base = r.uvarint()
	p.DataBase = r.uvarint()
	if n := r.count(minInstBytes); n > 0 {
		p.Insts = make([]isa.Inst, n)
		for i := 0; i < n && r.err == nil; i++ {
			in := &p.Insts[i]
			op := r.uvarint()
			if op > math.MaxUint16 {
				r.fail("opcode %d", op)
			}
			in.Op = isa.Opcode(op)
			if regs := r.take(4); regs != nil {
				in.Rd, in.Rs1, in.Rs2, in.Rs3 = regs[0], regs[1], regs[2], regs[3]
			}
			in.Imm = r.varint()
			in.Sym = r.str()
		}
	}
	if d := r.bytes(); len(d) > 0 {
		p.Data = bytes.Clone(d)
	}
	if n := r.count(2); n > 0 {
		j.Env = make(map[string]string, n)
		last := ""
		for i := 0; i < n && r.err == nil; i++ {
			k, v := r.str(), r.str()
			if i > 0 && k <= last {
				r.fail("env key %q after %q", k, last)
			}
			j.Env[k], last = v, k
		}
	}
	j.MemBytes = int(r.varint())
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// Body returns the part of an encoded clone that its content address
// covers: everything after the magic and the header. It reads only
// those two, so the body itself is checked by Decode, not here.
func Body(data []byte) ([]byte, error) {
	r := reader{b: data}
	r.magic()
	r.bytes()
	r.bytes()
	return r.b, r.err
}

// reader consumes an encoding front to back. The first error sticks:
// every later read returns a zero value and consumes nothing.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
	}
}

func (r *reader) magic() {
	if !bytes.HasPrefix(r.b, []byte(magic)) {
		r.fail("no %q prefix", magic)
	}
	r.take(len(magic))
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	// A last byte of zero after the first is a group a shorter varint
	// leaves out: the same value has a second, longer encoding.
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("truncated, overlong or non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads the number of items that follow, each at least min
// bytes long, and refuses it unless the bytes left could hold them.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/min) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// take consumes n bytes without copying them, or fails and returns nil.
func (r *reader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.fail("truncated")
	}
	if r.err != nil {
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// bytes reads a length-prefixed byte string without copying it.
func (r *reader) bytes() []byte { return r.take(r.count(1)) }

func (r *reader) str() string { return string(r.bytes()) }
