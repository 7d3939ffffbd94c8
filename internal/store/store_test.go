package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gofmm/internal/resilience"
)

// sha256sum is b's container digest, sealed through the same function as
// Write's, so a hand-built image passes exactly the checks a written one
// does.
func sha256sum(b []byte) []byte {
	s := digests(b)[0]
	return s[:]
}

// testSections builds a representative four-section payload set with
// deliberately awkward (non-aligned) lengths.
func testSections() []Section {
	arena64 := make([]byte, 8*129)
	for i := range arena64 {
		arena64[i] = byte(i * 7)
	}
	arena32 := make([]byte, 4*33)
	for i := range arena32 {
		arena32[i] = byte(i * 13)
	}
	return []Section{
		{Kind: SecMeta, Data: []byte("meta-payload")},
		{Kind: SecTopo, Data: bytes.Repeat([]byte{0xAB}, 777)},
		{Kind: SecArena64, Data: arena64},
		{Kind: SecArena32, Data: arena32},
	}
}

func writeTemp(t *testing.T, sections []Section) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "op.gofmm")
	if _, err := WriteFile(path, sections); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func checkSections(t *testing.T, f *File, want []Section) {
	t.Helper()
	if got, wantN := len(f.sections), len(want); got != wantN {
		t.Fatalf("got %d sections, want %d", got, wantN)
	}
	for _, s := range want {
		got, ok := f.Section(s.Kind)
		if !ok {
			t.Fatalf("section %s missing", s.Kind)
		}
		if !bytes.Equal(got, s.Data) {
			t.Errorf("section %s payload differs", s.Kind)
		}
	}
	if _, ok := f.Section(SectionKind(99)); ok {
		t.Error("lookup of absent kind succeeded")
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	want := testSections()
	path := writeTemp(t, want)
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Mapped() {
		t.Error("Open must not report a mapping")
	}
	st, _ := os.Stat(path)
	if f.Size() != st.Size() {
		t.Errorf("Size %d, stat %d", f.Size(), st.Size())
	}
	checkSections(t, f, want)
}

func TestOpenMmapRoundTrip(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" || runtime.GOOS == "js" {
		t.Skip("no mmap on this platform")
	}
	want := testSections()
	path := writeTemp(t, want)
	f, err := OpenMmap(path)
	if err != nil {
		t.Fatalf("OpenMmap: %v", err)
	}
	if !f.Mapped() {
		t.Error("OpenMmap must report a mapping")
	}
	checkSections(t, f, want)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSectionAlignment(t *testing.T) {
	path := writeTemp(t, testSections())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.sections {
		if s.off%Align != 0 {
			t.Errorf("section %s at offset %d not %d-byte aligned", s.kind, s.off, Align)
		}
	}
	// Arena payloads must be viewable as floats straight off the buffer.
	a64, _ := f.Section(SecArena64)
	if _, err := Float64s(a64); err != nil {
		t.Errorf("arena64 view: %v", err)
	}
	a32, _ := f.Section(SecArena32)
	if _, err := Float32s(a32); err != nil {
		t.Errorf("arena32 view: %v", err)
	}
}

// corrupt opens the written image, applies f, and decodes.
func decodeCorrupted(t *testing.T, mutate func([]byte) []byte) error {
	t.Helper()
	path := writeTemp(t, testSections())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(mutate(raw))
	return err
}

func TestDecodeRejectsCorruption(t *testing.T) {
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"short file", func(b []byte) []byte { return b[:headerSize-1] }, ErrBadStore},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadStore},
		{"bad version", func(b []byte) []byte { le.PutUint32(b[8:12], 99); return b }, ErrBadStore},
		{"zero sections", func(b []byte) []byte { le.PutUint32(b[12:16], 0); return b }, ErrBadStore},
		{"oversized count", func(b []byte) []byte { le.PutUint32(b[12:16], 1<<30); return b }, ErrBadStore},
		{"size mismatch", func(b []byte) []byte { le.PutUint64(b[16:24], uint64(len(b)+1)); return b }, ErrBadStore},
		{"table off", func(b []byte) []byte { le.PutUint64(b[24:32], 128); return b }, ErrBadStore},
		{"truncated", func(b []byte) []byte {
			le.PutUint64(b[16:24], uint64(len(b)-10))
			return b[:len(b)-10]
		}, ErrBadStore}, // the last section's range now overruns the file
		{"table bit flip", func(b []byte) []byte { b[headerSize+4] ^= 1; return b }, ErrChecksum},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeCorrupted(t, tc.mutate)
			if err == nil {
				t.Fatal("corrupted image decoded cleanly")
			}
			if !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("error %v is outside the taxonomy", err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsStructuralAttacks(t *testing.T) {
	// Hand-build a header+table that passes the table checksum but declares
	// hostile section geometry; Decode must reject each typed.
	build := func(kind1, kind2 uint32, off1, len1, off2, len2 uint64) []byte {
		le := binary.LittleEndian
		table := make([]byte, 2*entrySize)
		put := func(e []byte, kind uint32, off, sz uint64) {
			le.PutUint32(e[0:4], kind)
			le.PutUint64(e[8:16], off)
			le.PutUint64(e[16:24], sz)
		}
		put(table[:entrySize], kind1, off1, len1)
		put(table[entrySize:], kind2, off2, len2)
		total := uint64(4096)
		img := make([]byte, total)
		le.PutUint64(img[0:8], Magic)
		le.PutUint32(img[8:12], Version)
		le.PutUint32(img[12:16], 2)
		le.PutUint64(img[16:24], total)
		le.PutUint64(img[24:32], headerSize)
		copy(img[headerSize:], table)
		// Fix up payload checksums so only the structural check can reject.
		fix := func(e []byte, off, sz uint64) {
			if off+sz <= total {
				sum := sha256sum(img[off : off+sz])
				copy(e[24:56], sum)
			}
		}
		fix(img[headerSize:headerSize+entrySize], off1, len1)
		fix(img[headerSize+entrySize:headerSize+2*entrySize], off2, len2)
		tsum := sha256sum(img[headerSize : headerSize+2*entrySize])
		copy(img[32:64], tsum)
		return img
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"unknown kind", build(77, uint32(SecTopo), 192, 8, 256, 8)},
		{"retired plan kind", build(3, uint32(SecTopo), 192, 8, 256, 8)},
		{"duplicate kind", build(uint32(SecMeta), uint32(SecMeta), 192, 8, 256, 8)},
		{"misaligned", build(uint32(SecMeta), uint32(SecTopo), 200, 8, 256, 8)},
		{"overlap", build(uint32(SecMeta), uint32(SecTopo), 192, 100, 192, 8)},
		{"overrun", build(uint32(SecMeta), uint32(SecTopo), 192, 8, 4096, 64)},
		{"huge len", build(uint32(SecMeta), uint32(SecTopo), 192, 1<<60, 256, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.img)
			if err == nil {
				t.Fatal("hostile image decoded cleanly")
			}
			if !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("error %v is outside the taxonomy", err)
			}
		})
	}
}

func TestWriteRejectsBadSectionSets(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, nil); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("empty section set: %v", err)
	}
	dup := []Section{{Kind: SecMeta}, {Kind: SecMeta}}
	if _, err := Write(&buf, dup); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("duplicate kinds: %v", err)
	}
}

func TestViews(t *testing.T) {
	if _, err := Float64s(make([]byte, 12)); !errors.Is(err, ErrBadStore) {
		t.Errorf("ragged float64 view: %v", err)
	}
	if _, err := Float32s(make([]byte, 6)); !errors.Is(err, ErrBadStore) {
		t.Errorf("ragged float32 view: %v", err)
	}
	v, err := Float64s(nil)
	if err != nil || v != nil {
		t.Errorf("empty view: %v %v", v, err)
	}
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[8:], 0x3FF0000000000000) // 1.0
	f, err := Float64s(b)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 0 || f[1] != 1 {
		t.Errorf("view decoded %v", f)
	}
}

func TestOpenMissingAndShort(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("Open of missing file succeeded")
	}
	short := filepath.Join(t.TempDir(), "short")
	if err := os.WriteFile(short, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); !errors.Is(err, ErrBadStore) {
		t.Errorf("short file: %v", err)
	}
	// Header lies about the size: Open must reject before reading the body.
	img := make([]byte, 256)
	binary.LittleEndian.PutUint64(img[0:8], Magic)
	binary.LittleEndian.PutUint32(img[8:12], Version)
	binary.LittleEndian.PutUint32(img[12:16], 1)
	binary.LittleEndian.PutUint64(img[16:24], 1<<40) // declares a terabyte
	liar := filepath.Join(t.TempDir(), "liar")
	if err := os.WriteFile(liar, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(liar); !errors.Is(err, ErrBadStore) {
		t.Errorf("lying header: %v", err)
	}
}

func TestOpenMmapMissingAndShort(t *testing.T) {
	if _, err := OpenMmap(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("OpenMmap of missing file succeeded")
	}
	short := filepath.Join(t.TempDir(), "short")
	if err := os.WriteFile(short, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(short); !errors.Is(err, ErrBadStore) {
		t.Errorf("short file: %v", err)
	}
	// A corrupt image must unmap before the error returns (exercised under
	// -race: a leaked mapping would keep the File's views alive).
	bad := writeTemp(t, testSections())
	img, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(bad, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(bad); err == nil {
		t.Error("OpenMmap of corrupt image succeeded")
	}
}

func TestWriteFileErrors(t *testing.T) {
	// Target directory does not exist: the temp file cannot be created.
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "x.store")
	if _, err := WriteFile(missing, testSections()); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
	// Invalid section set: the error propagates and no file is left behind.
	dir := t.TempDir()
	path := filepath.Join(dir, "y.store")
	if _, err := WriteFile(path, nil); err == nil {
		t.Error("WriteFile with no sections succeeded")
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("failed WriteFile left a destination file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("failed WriteFile left %d stray files in the directory", len(ents))
	}
}
