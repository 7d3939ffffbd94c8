// Package store implements gofmm.store/v1: a versioned on-disk container
// for compressed operators with a flat, pointer-free layout. A store file
// is a 64-byte header, a digest-protected section table, and a sequence of
// 64-byte-aligned sections. The numeric payload (every skeleton basis,
// projection and cached near/far block, packed column-major) lives in one
// contiguous arena section per precision, so a loaded operator's matrices
// are views into a single byte range — the MatRox storage thesis: loading
// is mapping, not parsing.
//
// Every digest the file holds (the table's and each section's) is the root
// of a SHA-256 tree over fixed ChunkSize chunks (container version 2), so
// a load verifies every byte on all cores. The digests are unkeyed and
// live in the same file as what they cover: they catch bit rot and torn
// writes, not tampering, since whoever can rewrite a section can rewrite
// its digest too.
//
// Two load paths share one validator:
//
//   - Open reads the whole file into memory through the hardened
//     untrusted-stream discipline (every length bounded by the actual file
//     size before any allocation, every section checksummed).
//   - OpenMmap (unix) maps the file read-only and serves straight out of
//     the mapping; on unsupported platforms it returns ErrMmapUnsupported
//     and callers fall back to Open.
//
// The package knows nothing about trees or plans: it stores opaque
// sections keyed by kind. internal/core owns the section payloads.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"gofmm/internal/resilience"
)

// Format constants of gofmm.store/v1.
const (
	// Magic opens every store file: "GOFMSTOR".
	Magic = 0x524F54534D464F47 // little-endian "GOFMSTOR"
	// Version is the current container version. A file of any other,
	// such as version 1 with its flat SHA-256 digests, fails with
	// ErrBadStore.
	Version = 2
	// Align is the section alignment: every section offset is a multiple
	// of 64 bytes, so a page-aligned mapping yields cache-line-aligned
	// (and a fortiori 8-byte-aligned) float arenas.
	Align = 64

	headerSize = 64
	entrySize  = 56
	// maxSections bounds the section count a header may declare; v1 writes
	// four sections, so 64 leaves ample room for future kinds while keeping
	// the table allocation trivially bounded.
	maxSections = 64
)

// SectionKind identifies a section's payload. Kinds unknown to a reader are
// rejected: v1 is a closed format, and a kind this build cannot interpret
// means the file is from a different (or corrupted) world.
type SectionKind uint32

const (
	// SecMeta holds the operator's scalar metadata (dimensions, the
	// compression configuration snapshot).
	SecMeta SectionKind = 1
	// SecTopo holds the tree topology: permutation, per-node skeleton and
	// interaction lists, and the matrix table mapping every stored matrix
	// to its arena range.
	SecTopo SectionKind = 2
	// Kind 3 is retired: it held the plan digest of payload versions up
	// to 4, so a file that carries it fails as an unknown kind.
	// SecArena64 is the packed float64 arena (column-major matrix data,
	// each matrix starting at a 64-byte-aligned offset).
	SecArena64 SectionKind = 4
	// SecArena32 is the packed float32 arena.
	SecArena32 SectionKind = 5
)

func (k SectionKind) String() string {
	switch k {
	case SecMeta:
		return "meta"
	case SecTopo:
		return "topo"
	case SecArena64:
		return "arena64"
	case SecArena32:
		return "arena32"
	}
	return fmt.Sprintf("SectionKind(%d)", uint32(k))
}

// The store error taxonomy. Malformed input wraps resilience.ErrInvalidInput
// so callers dispatching on the repo-wide taxonomy classify store corruption
// as bad input, never as an internal failure.
var (
	// ErrBadStore is returned when the input is not a well-formed
	// gofmm.store/v1 file: bad magic, impossible lengths, overlapping or
	// misaligned sections, truncation.
	ErrBadStore = fmt.Errorf("%w: store: malformed operator store", resilience.ErrInvalidInput)
	// ErrChecksum is returned when the section table or a section's
	// payload does not match its recorded digest. It detects bit rot and
	// torn writes, not tampering: the digests are unkeyed and live in the
	// same file, so whoever can rewrite a section can rewrite its digest.
	ErrChecksum = fmt.Errorf("%w: store: section checksum mismatch", resilience.ErrInvalidInput)
	// ErrMmapUnsupported is returned by OpenMmap on platforms without mmap
	// support; callers fall back to the copying Open path.
	ErrMmapUnsupported = errors.New("store: mmap not supported on this platform")
)

// Section is one payload handed to Write, or one parsed range inside an
// opened File.
type Section struct {
	Kind SectionKind
	Data []byte
}

// section is the parsed table entry of an opened file.
type section struct {
	kind     SectionKind
	off, len int64
}

// File is an opened, fully validated store file. The section payloads are
// views into one backing buffer — a private heap copy (Open) or a shared
// read-only mapping (OpenMmap). A File is immutable after open and safe for
// concurrent use; Close releases the mapping, after which no section slice
// may be touched.
type File struct {
	data     []byte
	sections []section
	mapped   bool
	closed   bool
}

// Mapped reports whether the file is served from an mmap (true) or a heap
// copy (false).
func (f *File) Mapped() bool { return f.mapped }

// Size returns the total file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Section returns the payload of the first section of the given kind, or
// (nil, false) when the file has none. The returned slice aliases the
// backing buffer: it is valid until Close and must not be mutated.
func (f *File) Section(kind SectionKind) ([]byte, bool) {
	for _, s := range f.sections {
		if s.kind == kind {
			return f.data[s.off : s.off+s.len : s.off+s.len], true
		}
	}
	return nil, false
}

// Close releases the backing buffer (unmapping it when mmap'd). Idempotent.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.mapped {
		return f.unmap()
	}
	f.data = nil
	return nil
}

// Decode validates data as a complete gofmm.store/v1 image and returns a
// File whose sections alias it. It is the single validator behind Open and
// OpenMmap and the fuzz target's entry point: arbitrary input must produce a
// typed error, never a panic, and never an allocation sized by an
// unvalidated field (the section table is bounded by maxSections, the
// digest pass's leaves by the bytes actually present). Every section's
// geometry is checked before any payload is hashed; the hashing runs on
// up to GOMAXPROCS goroutines, all of which have returned when Decode
// does.
func Decode(data []byte) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header",
			ErrBadStore, len(data), headerSize)
	}
	le := binary.LittleEndian
	if le.Uint64(data[0:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadStore)
	}
	if v := le.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("%w: container version %d, this build reads version %d (compress and save the operator again)",
			ErrBadStore, v, Version)
	}
	count := int64(le.Uint32(data[12:16]))
	fileSize := le.Uint64(data[16:24])
	tableOff := le.Uint64(data[24:32])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header declares %d bytes, file has %d",
			ErrBadStore, fileSize, len(data))
	}
	if count < 1 || count > maxSections {
		return nil, fmt.Errorf("%w: section count %d outside [1,%d]", ErrBadStore, count, maxSections)
	}
	if tableOff != headerSize {
		return nil, fmt.Errorf("%w: section table at %d, want %d", ErrBadStore, tableOff, headerSize)
	}
	tableLen := count * entrySize
	if int64(headerSize)+tableLen > int64(len(data)) {
		return nil, fmt.Errorf("%w: section table overruns the file", ErrBadStore)
	}
	table := data[headerSize : headerSize+tableLen]
	if digests(table)[0] != [sha256.Size]byte(data[32:64]) {
		return nil, fmt.Errorf("%w: section table", ErrChecksum)
	}
	f := &File{data: data, sections: make([]section, 0, count)}
	payloads := make([][]byte, 0, count)
	prevEnd := int64(headerSize) + tableLen
	seen := make(map[SectionKind]bool, count)
	for i := int64(0); i < count; i++ {
		e := table[i*entrySize : (i+1)*entrySize]
		kind := SectionKind(le.Uint32(e[0:4]))
		off := le.Uint64(e[8:16])
		sz := le.Uint64(e[16:24])
		switch kind {
		case SecMeta, SecTopo, SecArena64, SecArena32:
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrBadStore, uint32(kind))
		}
		if seen[kind] {
			return nil, fmt.Errorf("%w: duplicate section %s", ErrBadStore, kind)
		}
		seen[kind] = true
		if off%Align != 0 {
			return nil, fmt.Errorf("%w: section %s at offset %d breaks %d-byte alignment",
				ErrBadStore, kind, off, Align)
		}
		if off > uint64(len(data)) || sz > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %s range [%d,+%d) overruns %d-byte file",
				ErrBadStore, kind, off, sz, len(data))
		}
		if int64(off) < prevEnd {
			return nil, fmt.Errorf("%w: section %s at %d overlaps the previous section",
				ErrBadStore, kind, off)
		}
		prevEnd = int64(off) + int64(sz)
		f.sections = append(f.sections, section{kind: kind, off: int64(off), len: int64(sz)})
		payloads = append(payloads, data[off:off+sz])
	}
	// Every section's chunks are hashed at once, and the roots compared in
	// table order, so the first mismatching section is the one reported.
	for i, sum := range digests(payloads...) {
		if sum != [sha256.Size]byte(table[i*entrySize+24:(i+1)*entrySize]) {
			return nil, fmt.Errorf("%w: section %s", ErrChecksum, f.sections[i].kind)
		}
	}
	return f, nil
}
