package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"gofmm/internal/resilience"
)

// FuzzStoreOpen feeds arbitrary bytes to the store validator. The contract
// under fuzzing: any input either decodes (and every accessor then works)
// or fails with a typed taxonomy error — never a panic, and never an
// allocation driven by an unvalidated length field (Decode's only sized
// allocation is the section table, capped at maxSections entries).
func FuzzStoreOpen(f *testing.F) {
	// Seed with a valid image and a few structured mutants so the fuzzer
	// starts past the magic check.
	var buf bytes.Buffer
	if _, err := Write(&buf, testSectionsF()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize])
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[12:16], 1<<31-1) // oversized section count
	f.Add(huge)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(v1[8:12], 1) // a version-1 header
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			if !errors.Is(err, resilience.ErrInvalidInput) {
				t.Fatalf("untyped error from Decode: %v", err)
			}
			return
		}
		for _, sec := range file.sections {
			kind := sec.kind
			payload, ok := file.Section(kind)
			if !ok {
				t.Fatalf("listed section %s not retrievable", kind)
			}
			// Views on arbitrary (but validated) payloads must fail typed
			// or succeed; either way, no panic.
			if kind == SecArena64 {
				_, _ = Float64s(payload)
			}
			if kind == SecArena32 {
				_, _ = Float32s(payload)
			}
		}
		if err := file.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// testSectionsF mirrors testSections for the fuzz seed without depending on
// *testing.T helpers.
func testSectionsF() []Section {
	return []Section{
		{Kind: SecMeta, Data: []byte("fuzz-meta")},
		{Kind: SecTopo, Data: bytes.Repeat([]byte{7}, 300)},
		{Kind: SecArena64, Data: make([]byte, 64)},
	}
}
