package store

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkSize is the leaf size of the digest tree. It is part of the format,
// not a tuning knob: every digest a version-2 file holds is computed over
// its bytes cut into ChunkSize chunks, the last one possibly shorter.
const ChunkSize = 1 << 20

// The one-byte prefixes that keep a leaf hash from ever equalling a root.
var leafPrefix, rootPrefix = []byte{0x00}, []byte{0x01}

// digests returns the container digest of each part,
//
//	SHA-256(0x01 ‖ d₀ ‖ d₁ ‖ …)  over  dᵢ = SHA-256(0x00 ‖ chunk i),
//
// where the chunks are the part's ChunkSize pieces (an empty part has
// none). Write, Decode and the tests all seal and check through it. The
// leaves of all parts are hashed together on min(GOMAXPROCS, chunks)
// goroutines, the chunks counted by the parts' total bytes, so an image
// of at most one chunk's bytes is hashed inline; every goroutine has
// returned when digests does.
func digests(parts ...[]byte) [][sha256.Size]byte {
	var chunks [][]byte
	first := make([]int, len(parts)+1) // part i's leaves are [first[i], first[i+1])
	total := 0
	for i, p := range parts {
		first[i] = len(chunks)
		for off := 0; off < len(p); off += ChunkSize {
			chunks = append(chunks, p[off:min(off+ChunkSize, len(p))])
		}
		total += len(p)
	}
	first[len(parts)] = len(chunks)

	leaves := make([][sha256.Size]byte, len(chunks))
	var next atomic.Int64
	work := func() {
		h := sha256.New()
		for i := int(next.Add(1) - 1); i < len(chunks); i = int(next.Add(1) - 1) {
			h.Reset()
			h.Write(leafPrefix)
			h.Write(chunks[i])
			h.Sum(leaves[i][:0])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (total+ChunkSize-1)/ChunkSize)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	roots := make([][sha256.Size]byte, len(parts))
	h := sha256.New()
	for i := range parts {
		h.Reset()
		h.Write(rootPrefix)
		for _, d := range leaves[first[i]:first[i+1]] {
			h.Write(d[:])
		}
		h.Sum(roots[i][:0])
	}
	return roots
}
