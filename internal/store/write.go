package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gofmm/internal/resilience"
)

// align64 rounds n up to the next multiple of Align.
func align64(n int64) int64 { return (n + Align - 1) &^ (Align - 1) }

// Write lays out sections in the given order and streams the complete store
// image: header, checksummed section table, then each payload at the next
// 64-byte-aligned offset. It returns the total bytes written.
func Write(w io.Writer, sections []Section) (int64, error) {
	if len(sections) < 1 || len(sections) > maxSections {
		return 0, fmt.Errorf("%w: store: %d sections outside [1,%d]",
			resilience.ErrInvalidInput, len(sections), maxSections)
	}
	seen := make(map[SectionKind]bool, len(sections))
	for _, s := range sections {
		if seen[s.Kind] {
			return 0, fmt.Errorf("%w: store: duplicate section %s",
				resilience.ErrInvalidInput, s.Kind)
		}
		seen[s.Kind] = true
	}
	le := binary.LittleEndian
	// Layout pass: table follows the header, payloads follow the table,
	// each at an aligned offset.
	tableLen := int64(len(sections)) * entrySize
	offs := make([]int64, len(sections))
	pos := align64(headerSize + tableLen)
	for i, s := range sections {
		offs[i] = pos
		pos = align64(pos + int64(len(s.Data)))
	}
	// The file ends at the last payload's true end, not its aligned end.
	fileSize := headerSize + tableLen
	if n := len(sections); n > 0 {
		fileSize = offs[n-1] + int64(len(sections[n-1].Data))
	}
	payloads := make([][]byte, len(sections))
	for i, s := range sections {
		payloads[i] = s.Data
	}
	sums := digests(payloads...)
	table := make([]byte, tableLen)
	for i, s := range sections {
		e := table[i*entrySize : (i+1)*entrySize]
		le.PutUint32(e[0:4], uint32(s.Kind))
		le.PutUint64(e[8:16], uint64(offs[i]))
		le.PutUint64(e[16:24], uint64(len(s.Data)))
		copy(e[24:56], sums[i][:])
	}
	var hdr [headerSize]byte
	le.PutUint64(hdr[0:8], Magic)
	le.PutUint32(hdr[8:12], Version)
	le.PutUint32(hdr[12:16], uint32(len(sections)))
	le.PutUint64(hdr[16:24], uint64(fileSize))
	le.PutUint64(hdr[24:32], headerSize)
	tsum := digests(table)[0]
	copy(hdr[32:64], tsum[:])

	bw := bufio.NewWriterSize(w, 1<<20)
	written := int64(0)
	emit := func(p []byte) error {
		n, err := bw.Write(p)
		written += int64(n)
		return err
	}
	pad := func(upto int64) error {
		var zeros [Align]byte
		for written < upto {
			chunk := upto - written
			if chunk > Align {
				chunk = Align
			}
			if err := emit(zeros[:chunk]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(hdr[:]); err != nil {
		return written, err
	}
	if err := emit(table); err != nil {
		return written, err
	}
	for i, s := range sections {
		if err := pad(offs[i]); err != nil {
			return written, err
		}
		if err := emit(s.Data); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// WriteFile writes a store image to path atomically: the image lands in a
// temporary file in the same directory, is synced, and renamed over the
// destination, so a crash mid-write never leaves a torn store where a
// loadable one is expected.
func WriteFile(path string, sections []Section) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	n, err := Write(tmp, sections)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	return n, os.Rename(tmp.Name(), path)
}

// Open reads and validates a store file through the hardened untrusted-file
// discipline: the header is read and bounds-checked against the actual file
// size before the payload allocation, so a corrupt size field can at most
// cost the file's true length, never an attacker-declared one. The returned
// File owns a private heap copy of the image.
func Open(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the %d-byte header",
			ErrBadStore, size, headerSize)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(fd, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	le := binary.LittleEndian
	if le.Uint64(hdr[0:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadStore)
	}
	if declared := le.Uint64(hdr[16:24]); declared != uint64(size) {
		return nil, fmt.Errorf("%w: header declares %d bytes, file has %d",
			ErrBadStore, declared, size)
	}
	data := make([]byte, size)
	copy(data, hdr[:])
	if _, err := io.ReadFull(fd, data[headerSize:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return Decode(data)
}
