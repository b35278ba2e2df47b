// Package twophase is the paper's third §2 baseline: the "naive
// implementation of atomic commit [that] will require two disk writes: one
// for the commit record (and log entry) and one for updating the actual
// data. This is somewhat more complicated than a system without atomic
// commit, has much better reliability, and performs about a factor of two
// worse for updates."
//
// It layers a redo log (the wal package) over the same slotted data file
// the ad-hoc baseline uses. An update first commits a redo record to the
// log (disk write one), then applies the change to the data file in place
// (disk write two). Recovery replays the log over the data file —
// re-applying a record is idempotent — so a crash between the two writes
// loses nothing. A Compact() checkpoint syncs the data file and empties the
// log, bounding replay; it runs automatically when the log passes a
// threshold.
package twophase

import (
	"fmt"
	"sync"

	"smalldb/internal/baseline/slotfile"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

const (
	dataFile = "data"
	logFile  = "redo"
	// compactAt bounds the redo log before automatic compaction.
	compactAt = 1 << 20
)

// record is one redo entry.
type record struct {
	Del   bool
	Key   string
	Value string
}

// DB is a naive atomic-commit database.
type DB struct {
	mu  sync.Mutex
	fs  vfs.FS
	sf  *slotfile.File
	log *wal.Log
	// AutoCompact, on by default, compacts when the log exceeds
	// compactAt bytes.
	AutoCompact bool
}

// Open recovers (or creates) the database in fs.
func Open(fs vfs.FS) (*DB, error) {
	var sf *slotfile.File
	var err error
	if vfs.Exists(fs, dataFile) {
		sf, err = slotfile.Open(fs, dataFile)
	} else {
		sf, err = slotfile.Create(fs, dataFile, 1024)
	}
	if err != nil {
		return nil, err
	}
	// The data file is synced only at commit points we control.
	sf.NoSync = true

	db := &DB{fs: fs, sf: sf, AutoCompact: true}

	if vfs.Exists(fs, logFile) {
		// Redo recovery: re-apply every committed record; a record
		// whose data-file write already happened is overwritten with
		// identical bytes.
		res, err := wal.Replay(fs, logFile, 1, wal.ReplayOptions{Repair: true}, func(seq uint64, payload []byte) error {
			var rec record
			if err := pickle.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("twophase: redo entry %d: %w", seq, err)
			}
			return db.applyToData(&rec)
		})
		if err != nil {
			sf.Close()
			return nil, err
		}
		if err := sf.Sync(); err != nil {
			sf.Close()
			return nil, err
		}
		db.log, err = wal.Open(fs, logFile, res, wal.Options{})
		if err != nil {
			sf.Close()
			return nil, err
		}
	} else {
		db.log, err = wal.Create(fs, logFile, 1, wal.Options{})
		if err != nil {
			sf.Close()
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) applyToData(rec *record) error {
	if rec.Del {
		_, err := db.sf.Delete(rec.Key)
		return err
	}
	return db.sf.Put(rec.Key, rec.Value)
}

// commit runs the two-write protocol for one record.
func (db *DB) commit(rec *record) error {
	payload, err := pickle.Marshal(rec)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Disk write one: the commit record.
	if _, err := db.log.Append(payload); err != nil {
		return err
	}
	// Disk write two: the data page, in place.
	if err := db.applyToData(rec); err != nil {
		return err
	}
	if err := db.sf.Sync(); err != nil {
		return err
	}
	if db.AutoCompact && db.log.Size() > compactAt {
		return db.compactLocked()
	}
	return nil
}

// Lookup reads key directly from the data pages.
func (db *DB) Lookup(key string) (string, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sf.Lookup(key)
}

// Update sets key=value with two disk writes.
func (db *DB) Update(key, value string) error {
	return db.commit(&record{Key: key, Value: value})
}

// Delete removes key with two disk writes.
func (db *DB) Delete(key string) error {
	db.mu.Lock()
	_, found, err := db.sf.Lookup(key)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("twophase: no such key %q", key)
	}
	return db.commit(&record{Del: true, Key: key})
}

// All returns every record.
func (db *DB) All() (map[string]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sf.All()
}

// Compact syncs the data file and resets the redo log, bounding recovery
// replay.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

func (db *DB) compactLocked() error {
	if err := db.sf.Sync(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		return err
	}
	l, err := wal.Create(db.fs, logFile, 1, wal.Options{})
	if err != nil {
		return err
	}
	db.log = l
	return nil
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.sf.Sync(); err != nil {
		return err
	}
	if err := db.log.Close(); err != nil {
		db.sf.Close()
		return err
	}
	return db.sf.Close()
}
