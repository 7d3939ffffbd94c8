package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Section payload codec for the operator store (gofmm.store/v1). The
// container framing — header, section table, checksums, alignment — lives
// in internal/store; this file owns the byte layout inside the sections
// core writes:
//
//	meta : scalar payload version + dimensions + the Config snapshot
//	topo : matrix table, permutation, per-node skeleton, T ref, lists and
//	       matrix refs (one per list slot; -1 where the partner owns the
//	       pair's block)
//	arena: raw little-endian column-major float data (one per precision)
//
// Everything integer is little-endian int64; booleans are one byte. The
// reader is sticky-error and bounds every allocation by the bytes actually
// remaining in the section, so a corrupt length field can never cost more
// memory than the (already size-validated) file itself.

const (
	// storePayloadVersion versions the section payloads independently of
	// the container (bump when the byte layout inside a section changes).
	// Version 2 dropped the persisted op stream and stage schedule.
	// Version 3 stores one block per symmetric near/far pair: each node
	// has one near and one far ref list, with -1 at the slots whose block
	// the partner owns, and a basis may be a float32 record.
	// Version 4 stores each basis P = [I T]Π as its block T alone: s×(c−s)
	// over the c candidate columns, its columns in ascending candidate
	// order, ref -1 where no column is redundant. The loader derives Π
	// from the skeleton and the tree.
	// Version 5 drops the plan section: the loader lowers the plan from
	// the operator whenever the store carries every block it reads.
	storePayloadVersion = 5

	// maxSerialDim bounds every dimension-like field in a payload. A
	// corrupted or adversarial length field must produce ErrBadFormat, not
	// a multi-gigabyte allocation.
	maxSerialDim = 1 << 31
)

// ErrBadFormat is returned when a store's section payloads do not describe
// a valid compressed operator (the container itself already passed the
// internal/store checks).
var ErrBadFormat = errors.New("core: bad serialization format")

// matRec is one matrix-table entry: a precision tag (4 or 8), the matrix
// shape, and its byte offset into the arena section of that precision.
type matRec struct {
	prec, rows, cols, off int64
}

// secWriter accumulates a section payload.
type secWriter struct {
	b []byte
}

func (w *secWriter) i64(v int64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v))
}

func (w *secWriter) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *secWriter) boolean(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// ints writes a length-prefixed index list.
func (w *secWriter) ints(xs []int) {
	w.i64(int64(len(xs)))
	for _, x := range xs {
		w.i64(int64(x))
	}
}

// secReader parses a section payload with sticky errors: after the first
// failure every getter returns a zero value and the error surfaces once
// through err(). All failures wrap ErrBadFormat.
type secReader struct {
	b    []byte
	off  int
	what string // section name for error context
	fail error
}

func newSecReader(name string, b []byte) *secReader {
	return &secReader{b: b, what: name}
}

func (r *secReader) failf(format string, args ...any) {
	if r.fail == nil {
		r.fail = fmt.Errorf("%w: store %s section: %s", ErrBadFormat, r.what,
			fmt.Sprintf(format, args...))
	}
}

// err returns the first parse failure.
func (r *secReader) err() error { return r.fail }

// remaining returns the unconsumed byte count.
func (r *secReader) remaining() int { return len(r.b) - r.off }

// finish fails when the section has unconsumed bytes (exact-consumption
// hardening: a payload with trailing garbage is not a v1 payload).
func (r *secReader) finish() error {
	if r.fail == nil && r.remaining() != 0 {
		r.failf("%d trailing bytes", r.remaining())
	}
	return r.fail
}

func (r *secReader) i64() int64 {
	if r.fail != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.failf("truncated at byte %d", r.off)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *secReader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}

func (r *secReader) boolean() bool {
	if r.fail != nil {
		return false
	}
	if r.remaining() < 1 {
		r.failf("truncated at byte %d", r.off)
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.failf("boolean byte %d at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// dim reads an int64 in [-1, maxSerialDim] (-1 encodes "absent").
func (r *secReader) dim() int {
	v := r.i64()
	if v < -1 || v > maxSerialDim {
		r.failf("length field %d out of range", v)
		return 0
	}
	return int(v)
}

// ints reads a length-prefixed index list with every entry in [0, bound).
// The allocation is bounded by the bytes remaining in the section, not by
// the declared length.
func (r *secReader) ints(bound int) []int {
	n := r.dim()
	if r.fail != nil {
		return nil
	}
	if n < 0 {
		return nil
	}
	if n > r.remaining()/8 {
		r.failf("list of %d entries in %d remaining bytes", n, r.remaining())
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := r.i64()
		if r.fail != nil {
			return nil
		}
		if v < 0 || v >= int64(bound) {
			r.failf("index %d outside [0,%d)", v, bound)
			return nil
		}
		out[i] = int(v)
	}
	return out
}
