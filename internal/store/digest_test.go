package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// refDigest is the container digest of b written out from its definition,
// one chunk at a time.
func refDigest(b []byte) [sha256.Size]byte {
	root := []byte{0x01}
	for off := 0; off < len(b); off += ChunkSize {
		leaf := sha256.Sum256(append([]byte{0x00}, b[off:min(off+ChunkSize, len(b))]...))
		root = append(root, leaf[:]...)
	}
	return sha256.Sum256(root)
}

// patterned returns n bytes that differ from chunk to chunk, so a tree
// that swapped or dropped chunks would not hash to the same root.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31+i/ChunkSize) ^ seed
	}
	return b
}

// withProcs runs the test at GOMAXPROCS 4, so the digest pass starts
// goroutines even on a single-core runner.
func withProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDigestTree pins the digest to its definition at the chunk
// boundaries, whether a part is hashed alone or with others.
func TestDigestTree(t *testing.T) {
	withProcs(t)
	var parts [][]byte
	for i, n := range []int{0, 1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 12345} {
		parts = append(parts, patterned(n, byte(i)))
	}
	all := digests(parts...)
	for i, p := range parts {
		want := refDigest(p)
		if all[i] != want {
			t.Errorf("%d bytes hashed with the others: digest differs from the definition", len(p))
		}
		if alone := digests(p)[0]; alone != want {
			t.Errorf("%d bytes hashed alone: digest differs from the definition", len(p))
		}
	}
	if d := digests(nil)[0]; d != sha256.Sum256([]byte{0x01}) {
		t.Error("an empty part's digest is not SHA-256(0x01)")
	}
	if sha256.Sum256(parts[5]) == all[5] {
		t.Error("a multi-chunk digest equals the flat SHA-256")
	}
}

// chunkSections is a container whose sections sit on and across chunk
// boundaries: topo is exactly one chunk, arena64 two and a ragged half,
// arena32 empty.
func chunkSections() []Section {
	return []Section{
		{Kind: SecMeta, Data: []byte("meta-payload")},
		{Kind: SecTopo, Data: patterned(ChunkSize, 1)},
		{Kind: SecArena64, Data: patterned(2*ChunkSize+ChunkSize/2+8, 2)},
		{Kind: SecArena32, Data: nil},
	}
}

func writeImage(t *testing.T, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionOffset returns the file offset of the section of the given kind.
func sectionOffset(t *testing.T, img []byte, kind SectionKind) int {
	t.Helper()
	f, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.sections {
		if s.kind == kind {
			return int(s.off)
		}
	}
	t.Fatalf("no section %s", kind)
	return 0
}

// TestDecodeChunkBitFlips: one flipped bit anywhere in the tree's leaves,
// or in the table, fails with ErrChecksum naming what it hit.
func TestDecodeChunkBitFlips(t *testing.T) {
	withProcs(t)
	img := writeImage(t, chunkSections())
	topo := sectionOffset(t, img, SecTopo)
	a64 := sectionOffset(t, img, SecArena64)
	a64Len := len(chunkSections()[2].Data)
	cases := []struct {
		name, want string
		at         int
	}{
		{"first byte of a chunk", "arena64", a64 + ChunkSize},
		{"last byte of a chunk", "arena64", a64 + ChunkSize - 1},
		{"ragged last chunk", "arena64", a64 + a64Len - 1},
		{"first byte of a one-chunk section", "topo", topo},
		{"last byte of a one-chunk section", "topo", topo + ChunkSize - 1},
		{"section table", "section table", headerSize + entrySize + 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), img...)
			bad[c.at] ^= 0x10
			_, err := Decode(bad)
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("got %v, want ErrChecksum", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want it to name %s", err, c.want)
			}
		})
	}
}

// TestEmptySectionRoundTrip: an empty section decodes to an empty payload,
// and its entry's digest is still checked.
func TestEmptySectionRoundTrip(t *testing.T) {
	want := chunkSections()
	img := writeImage(t, want)
	f, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	checkSections(t, f, want)

	// Flip a bit of arena32's digest and re-seal the table, so only the
	// section check can reject.
	bad := append([]byte(nil), img...)
	e := bad[headerSize+3*entrySize : headerSize+4*entrySize]
	if SectionKind(binary.LittleEndian.Uint32(e[0:4])) != SecArena32 || binary.LittleEndian.Uint64(e[16:24]) != 0 {
		t.Fatal("fourth entry is not the empty arena32")
	}
	e[24] ^= 1
	copy(bad[32:64], sha256sum(bad[headerSize:headerSize+4*entrySize]))
	if _, err := Decode(bad); !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "arena32") {
		t.Fatalf("got %v, want ErrChecksum for arena32", err)
	}
}

// TestDecodeRejectsVersion1: a version-1 image fails with ErrBadStore
// naming its version, whatever its digests.
func TestDecodeRejectsVersion1(t *testing.T) {
	img := writeImage(t, testSections())
	binary.LittleEndian.PutUint32(img[8:12], 1)
	_, err := Decode(img)
	if !errors.Is(err, ErrBadStore) {
		t.Fatalf("got %v, want ErrBadStore", err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("got %v, want it to name version 1", err)
	}
}

// TestDecodeLeavesNoGoroutine: the digest pass's goroutines have exited
// once Decode returns, on success and on a checksum failure.
func TestDecodeLeavesNoGoroutine(t *testing.T) {
	withProcs(t)
	base := runtime.NumGoroutine()
	img := writeImage(t, chunkSections())
	bad := append([]byte(nil), img...)
	bad[sectionOffset(t, img, SecArena64)+ChunkSize] ^= 1
	for _, c := range []struct {
		name string
		img  []byte
		ok   bool
	}{{"valid", img, true}, {"corrupt", bad, false}} {
		if _, err := Decode(c.img); (err == nil) != c.ok {
			t.Fatalf("%s image: Decode returned %v", c.name, err)
		}
		// A worker may still be unwinding past its Done; one that outlives
		// Decode for good never lets the count fall back.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s image: %d goroutines after Decode, %d before", c.name, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

// TestConcurrentDecodes decodes one image from several goroutines at once
// (run it with -race).
func TestConcurrentDecodes(t *testing.T) {
	withProcs(t)
	want := chunkSections()
	img := writeImage(t, want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				f, err := Decode(img)
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range want {
					if got, ok := f.Section(s.Kind); !ok || !bytes.Equal(got, s.Data) {
						t.Errorf("section %s differs", s.Kind)
					}
				}
			}
		}()
	}
	wg.Wait()
}
