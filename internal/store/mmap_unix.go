//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// OpenMmap maps a store file read-only and validates it in place. The
// returned File's sections are views into the shared mapping: loading costs
// one page-table setup plus the digest pass on every core (which doubles as
// page-cache warmup), and the float arenas are served zero-copy until Close
// unmaps.
// A failing mmap call returns its error wrapped in ErrMmapUnsupported.
// Validation failures unmap before returning, so an error never leaks a
// mapping.
func OpenMmap(path string) (*File, error) {
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
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%w: %d bytes exceeds the address space", ErrBadStore, size)
	}
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrMmapUnsupported, path, err)
	}
	f, err := Decode(data)
	if err != nil {
		_ = syscall.Munmap(data)
		return nil, err
	}
	f.mapped = true
	return f, nil
}

// unmap releases the mapping backing a mapped File.
func (f *File) unmap() error {
	data := f.data
	f.data = nil
	f.sections = nil
	return syscall.Munmap(data)
}
