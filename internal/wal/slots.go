package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/catalog"
)

// DefaultSlotsName is the routing slot table's file in the durability
// directory. The file is the checkpointed base: slot moves committed since
// the last checkpoint live as records in the coordinator log and are
// re-applied on top of it during recovery.
const DefaultSlotsName = "slots.tbl"

// SlotsPath returns the slot-table file path for a durability directory.
func SlotsPath(dir string) string { return filepath.Join(dir, DefaultSlotsName) }

// ErrNoSlots reports that no slot-table file exists (fresh directory or
// one written before slot routing; callers fall back to the canonical
// assignment for the stamped partition count).
var ErrNoSlots = errors.New("wal: no slot table")

// WriteSlots atomically and durably persists the slot table (write-temp,
// fsync, rename, fsync the directory; CRC trailer like the snapshots).
func WriteSlots(path string, t *catalog.SlotTable) error {
	body := t.Encode()
	buf := make([]byte, 0, len(body)+4)
	buf = append(buf, body...)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	buf = append(buf, tail[:]...)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: slot table create: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: slot table rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: slot table rename: %w", err)
	}
	return nil
}

// LoadSlots reads a persisted slot table.
func LoadSlots(path string) (*catalog.SlotTable, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSlots
	}
	if err != nil {
		return nil, fmt.Errorf("wal: slot table read: %w", err)
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("wal: slot table too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: slot table checksum mismatch (torn write?)")
	}
	return catalog.DecodeSlotTable(body)
}
