package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/types"
)

// Snapshot captures the full data state at a quiescent point: every
// relation's rows, each window's slide bookkeeping, the border batch
// counter, and the LSN up to which the command log has been applied.
// Schema/DDL is not stored: applications re-issue their DDL at startup and
// the snapshot only restores data (the H-Store model, where the catalog is
// part of the deployment).
type Snapshot struct {
	LastLSN     uint64
	NextBatchID uint64
}

const snapshotMagic = 0x53535451 // "SSTQ"

// WriteSnapshot atomically and durably writes the snapshot of cat to path
// (write-temp, fsync, rename, fsync the directory).
func WriteSnapshot(path string, cat *catalog.Catalog, meta Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: snapshot create: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		mw.Write(b[:])
	}
	writeBytes := func(p []byte) {
		writeU64(uint64(len(p)))
		mw.Write(p)
	}
	writeU64(snapshotMagic)
	writeU64(meta.LastLSN)
	writeU64(meta.NextBatchID)

	names := cat.Names()
	writeU64(uint64(len(names)))
	for _, name := range names {
		rel := cat.Relation(name)
		writeBytes([]byte(rel.Name))
		writeU64(uint64(rel.Kind))
		rows := rel.Table.ScanRows()
		payload := types.EncodeRows(nil, rows)
		writeBytes(payload)
		if rel.Kind == catalog.KindWindow {
			win := rel.Win
			writeU64(uint64(win.Admitted))
			writeU64(uint64(win.Watermark))
			writeU64(uint64(win.SlideCount))
			writeBytes([]byte(win.OwnerProc))
			writeBytes(types.EncodeRows(nil, win.Staged))
		}
	}
	// Trailer: CRC over everything written so far.
	sum := crc.Sum32()
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	if _, err := w.Write(tail[:]); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
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
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so that a rename or a file creation in it
// survives power loss. Without it the new name can be lost after the
// caller has acted on it — Checkpoint truncates the log once the snapshot
// is in place, and a new log's first records are acked.
//
// A variable so tests can observe which operations sync a directory.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// ErrNoSnapshot reports that no snapshot file exists.
var ErrNoSnapshot = errors.New("wal: no snapshot")

// LoadSnapshot restores relation data into an already-DDL'd catalog and
// returns the snapshot metadata. Relations present in the snapshot but
// missing from the catalog are an error (the deployment changed
// incompatibly); relations in the catalog but not the snapshot are left
// empty.
func LoadSnapshot(path string, cat *catalog.Catalog) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Snapshot{}, ErrNoSnapshot
	}
	if err != nil {
		return Snapshot{}, fmt.Errorf("wal: snapshot read: %w", err)
	}
	if len(data) < 12 {
		return Snapshot{}, fmt.Errorf("wal: snapshot too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return Snapshot{}, fmt.Errorf("wal: snapshot checksum mismatch (torn write?)")
	}
	buf := body
	readU64 := func() (uint64, error) {
		if len(buf) < 8 {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v, nil
	}
	readBytes := func() ([]byte, error) {
		n, err := readU64()
		if err != nil || uint64(len(buf)) < n {
			return nil, io.ErrUnexpectedEOF
		}
		p := buf[:n]
		buf = buf[n:]
		return p, nil
	}
	magic, err := readU64()
	if err != nil || magic != snapshotMagic {
		return Snapshot{}, fmt.Errorf("wal: not a snapshot file")
	}
	var meta Snapshot
	if meta.LastLSN, err = readU64(); err != nil {
		return Snapshot{}, err
	}
	if meta.NextBatchID, err = readU64(); err != nil {
		return Snapshot{}, err
	}
	nRel, err := readU64()
	if err != nil {
		return Snapshot{}, err
	}
	for i := uint64(0); i < nRel; i++ {
		nameB, err := readBytes()
		if err != nil {
			return Snapshot{}, err
		}
		kindU, err := readU64()
		if err != nil {
			return Snapshot{}, err
		}
		payload, err := readBytes()
		if err != nil {
			return Snapshot{}, err
		}
		rel := cat.Relation(string(nameB))
		if rel == nil {
			return Snapshot{}, fmt.Errorf("wal: snapshot relation %q missing from catalog (run DDL before recovery)", nameB)
		}
		if rel.Kind != catalog.RelationKind(kindU) {
			return Snapshot{}, fmt.Errorf("wal: snapshot relation %q kind mismatch", nameB)
		}
		rows, _, err := types.DecodeRows(payload)
		if err != nil {
			return Snapshot{}, fmt.Errorf("wal: snapshot rows of %q: %w", nameB, err)
		}
		rel.Table.Truncate(nil)
		for _, r := range rows {
			if _, err := rel.Table.Insert(r, nil); err != nil {
				return Snapshot{}, fmt.Errorf("wal: snapshot restore %q: %w", nameB, err)
			}
		}
		if rel.Kind == catalog.KindWindow {
			adm, err := readU64()
			if err != nil {
				return Snapshot{}, err
			}
			wm, err := readU64()
			if err != nil {
				return Snapshot{}, err
			}
			sc, err := readU64()
			if err != nil {
				return Snapshot{}, err
			}
			owner, err := readBytes()
			if err != nil {
				return Snapshot{}, err
			}
			stagedB, err := readBytes()
			if err != nil {
				return Snapshot{}, err
			}
			staged, _, err := types.DecodeRows(stagedB)
			if err != nil {
				return Snapshot{}, err
			}
			rel.Win.Admitted = int64(adm)
			rel.Win.Watermark = int64(wm)
			rel.Win.SlideCount = int64(sc)
			rel.Win.OwnerProc = string(owner)
			rel.Win.Staged = staged
		}
	}
	return meta, nil
}
