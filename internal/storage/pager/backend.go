package pager

import (
	"fmt"
	"os"
	"sync"
)

// MemBackend is an in-memory page store. It is the default substrate for
// experiments: "disk accesses" are still counted by the Pager, but no real
// I/O happens, which keeps the benchmark harness deterministic and fast
// while preserving the paper's cost metric.
//
// A Pager directly over a MemBackend holds no page twice: its frames point
// at the backend's pages (page) instead of copying them, so a write into
// a pinned page is a write into the store, and flushing such a page writes
// it onto itself, which WritePage skips. A Pager over a wrapped MemBackend
// keeps its own copies, read through ReadPage.
type MemBackend struct {
	mu     sync.RWMutex // RLock on the read path so shards read in parallel
	pages  [][]byte
	closed bool
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// shortBuffer is the error of a page read or write handed fewer than
// PageSize bytes.
func shortBuffer(backend string, buf []byte) error {
	return fmt.Errorf("%s: buffer of %d bytes, want %d", backend, len(buf), PageSize)
}

// pageLocked returns page id's own bytes, or why there are none. Caller
// holds b.mu.
func (b *MemBackend) pageLocked(id PageID) ([]byte, error) {
	if b.closed {
		return nil, ErrClosed
	}
	if int(id) >= len(b.pages) {
		return nil, fmt.Errorf("membackend: page %d out of range (%d pages)", id, len(b.pages))
	}
	return b.pages[id], nil
}

// page lends page id's own bytes to a Pager's frame (pool.mem).
func (b *MemBackend) page(id PageID) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.pageLocked(id)
}

// ReadPage implements Backend.
func (b *MemBackend) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return shortBuffer("membackend", buf)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, err := b.pageLocked(id)
	if err != nil {
		return err
	}
	copy(buf, p)
	return nil
}

// WritePage implements Backend. Handed the page's own bytes — a flush
// from a frame that points at the page — it has nothing to write, and
// writes nothing, so such a flush never races with the page's readers.
func (b *MemBackend) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return shortBuffer("membackend", buf)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.pageLocked(id)
	if err != nil {
		return err
	}
	if &p[0] != &buf[0] {
		copy(p, buf)
	}
	return nil
}

// Allocate implements Backend.
func (b *MemBackend) Allocate() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	id := PageID(len(b.pages))
	b.pages = append(b.pages, make([]byte, PageSize))
	return id, nil
}

// NumPages implements Backend.
func (b *MemBackend) NumPages() PageID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return PageID(len(b.pages))
}

// Sync implements Backend (a no-op for memory).
func (b *MemBackend) Sync() error { return nil }

// Close implements Backend.
func (b *MemBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.pages = nil
	return nil
}

// FileBackend stores pages in a single OS file, page i at offset
// i*PageSize.
type FileBackend struct {
	mu     sync.RWMutex // RLock on the read path (ReadAt is concurrency-safe)
	f      *os.File
	pages  PageID
	closed bool
}

// OpenFile opens (or creates) a file-backed page store at path.
func OpenFile(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("filebackend: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("filebackend: %s size %d not a multiple of page size", path, st.Size())
	}
	return &FileBackend{f: f, pages: PageID(st.Size() / PageSize)}, nil
}

// ReadPage implements Backend.
func (b *FileBackend) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return shortBuffer("filebackend", buf)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	if id >= b.pages {
		return fmt.Errorf("filebackend: page %d out of range (%d pages)", id, b.pages)
	}
	_, err := b.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements Backend.
func (b *FileBackend) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return shortBuffer("filebackend", buf)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if id >= b.pages {
		return fmt.Errorf("filebackend: page %d out of range (%d pages)", id, b.pages)
	}
	_, err := b.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Allocate implements Backend.
func (b *FileBackend) Allocate() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	id := b.pages
	var zero [PageSize]byte
	if _, err := b.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("filebackend: extend: %w", err)
	}
	b.pages++
	return id, nil
}

// NumPages implements Backend.
func (b *FileBackend) NumPages() PageID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.pages
}

// Sync implements Backend.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	return b.f.Sync()
}

// Close implements Backend.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	return b.f.Close()
}
