package datanode

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"aurora/internal/dfs/proto"
)

// ErrCorrupt reports a stored replica whose bytes no longer match their
// checksum.
var ErrCorrupt = errors.New("datanode: block corrupt (checksum mismatch)")

// BlockStore is the datanode's storage engine. Implementations must be
// safe for concurrent use. Put overwrites; Get returns a private copy.
type BlockStore interface {
	Put(id proto.BlockID, data []byte) error
	Get(id proto.BlockID) ([]byte, error)
	Delete(id proto.BlockID) bool
	Has(id proto.BlockID) bool
	List() []proto.BlockID
	Len() int
}

// memStore keeps replicas in memory with their checksums, verifying on
// every read so corruption (e.g. a test flipping bytes) surfaces as
// ErrCorrupt rather than silent bad data.
type memStore struct {
	capacity int

	mu     sync.Mutex
	blocks map[proto.BlockID][]byte
	sums   map[proto.BlockID]uint32
}

// newMemStore creates an in-memory store bounded to capacity blocks.
func newMemStore(capacity int) *memStore {
	return &memStore{
		capacity: capacity,
		blocks:   make(map[proto.BlockID][]byte),
		sums:     make(map[proto.BlockID]uint32),
	}
}

func (s *memStore) Put(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.blocks[id]; !exists && len(s.blocks) >= s.capacity {
		return fmt.Errorf("%w: %d blocks", ErrStoreFull, len(s.blocks))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.blocks[id] = cp
	s.sums[id] = proto.ChunkChecksum(cp)
	return nil
}

func (s *memStore) Get(id proto.BlockID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	if proto.ChunkChecksum(data) != s.sums[id] {
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, id)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// corrupt replaces stored bytes without refreshing the checksum (fault
// injection for tests).
func (s *memStore) corrupt(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blocks[id]; !ok {
		return fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.blocks[id] = cp // s.sums[id] intentionally left stale
	return nil
}

func (s *memStore) Delete(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blocks[id]; !ok {
		return false
	}
	delete(s.blocks, id)
	delete(s.sums, id)
	return true
}

func (s *memStore) Has(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[id]
	return ok
}

func (s *memStore) List() []proto.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.BlockID, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	return out
}

func (s *memStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// diskStore persists replicas as files under a directory, one file per
// block, with the CRC32C checksum stored in a 4-byte header. It survives
// datanode restarts: List scans the directory on demand.
type diskStore struct {
	dir      string
	capacity int

	mu    sync.Mutex
	index map[proto.BlockID]struct{}
}

// newDiskStore opens (or creates) a disk-backed store in dir and indexes
// any blocks already present.
func newDiskStore(dir string, capacity int) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datanode: create store dir: %w", err)
	}
	s := &diskStore{dir: dir, capacity: capacity, index: make(map[proto.BlockID]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("datanode: scan store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, "blk_") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimPrefix(name, "blk_"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		s.index[proto.BlockID(id)] = struct{}{}
	}
	return s, nil
}

func (s *diskStore) path(id proto.BlockID) string {
	return filepath.Join(s.dir, fmt.Sprintf("blk_%d", id))
}

func (s *diskStore) Put(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[id]; !exists && len(s.index) >= s.capacity {
		return fmt.Errorf("%w: %d blocks", ErrStoreFull, len(s.index))
	}
	buf := make([]byte, 4+len(data))
	sum := proto.ChunkChecksum(data)
	buf[0] = byte(sum >> 24)
	buf[1] = byte(sum >> 16)
	buf[2] = byte(sum >> 8)
	buf[3] = byte(sum)
	copy(buf[4:], data)
	// Write-then-rename so a crash never leaves a torn block visible.
	tmp := s.path(id) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("datanode: write block %d: %w", id, err)
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		return fmt.Errorf("datanode: commit block %d: %w", id, err)
	}
	s.index[id] = struct{}{}
	return nil
}

func (s *diskStore) Get(id proto.BlockID) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	buf, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("datanode: read block %d: %w", id, err)
	}
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: block %d truncated", ErrCorrupt, id)
	}
	sum := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	data := buf[4:]
	if proto.ChunkChecksum(data) != sum {
		return nil, fmt.Errorf("%w: block %d", ErrCorrupt, id)
	}
	return data, nil
}

// corrupt rewrites the block body while keeping the original checksum
// header (fault injection for tests).
func (s *diskStore) corrupt(id proto.BlockID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return fmt.Errorf("%w: block %d", ErrBlockNotFound, id)
	}
	buf, err := os.ReadFile(s.path(id))
	if err != nil || len(buf) < 4 {
		return fmt.Errorf("datanode: corrupt block %d: unreadable", id)
	}
	out := append(buf[:4:4], data...)
	return os.WriteFile(s.path(id), out, 0o644)
}

func (s *diskStore) Delete(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return false
	}
	delete(s.index, id)
	//lint:ignore errcheck best effort: an orphaned file is rewritten on the next Put
	_ = os.Remove(s.path(id))
	return true
}

func (s *diskStore) Has(id proto.BlockID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

func (s *diskStore) List() []proto.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]proto.BlockID, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	return out
}

func (s *diskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

var (
	_ BlockStore = (*memStore)(nil)
	_ BlockStore = (*diskStore)(nil)
)
