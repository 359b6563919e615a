package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	distcolor "repro"
	"repro/internal/fault"
)

// Store is the write-ahead job store behind `colord -data-dir`: an append-only
// journal of distcolor.JobRecord entries (submission, state transitions,
// terminal results) framed as length-prefixed, CRC-guarded JSON records in
// numbered segment files. Replay merges entries by job ID, so any byte prefix
// of the journal — which is exactly what a crash leaves behind — reconstructs
// a consistent job table: a job exists iff its submission entry is complete,
// and is terminal iff its terminal entry is complete. The server re-enqueues
// every recovered non-terminal job on startup.
//
// Framing: each record is [len uint32][crc32(payload) uint32][payload JSON],
// both integers little-endian. A torn tail (len or crc violated) in the
// final segment is the expected crash artifact: replay stops at the last
// intact record and Open truncates the segment there so appends resume on a
// clean boundary. The same damage in a non-final segment cannot be produced
// by a crash of this writer and is reported as corruption.
//
// Durability policy: submission and terminal entries are fsync'd before the
// append returns — they are the entries whose loss changes the job table.
// "running" transitions and retention "forgotten" markers ride the next sync:
// losing one replays the job as queued (it re-runs — the at-least-once side
// of recovery) or re-retains a forgotten job, both harmless.
//
// Compaction: when the journal accumulates segments, Compact replays them
// and rewrites one condensed record per retained job (submission + latest
// state + outcome) into a fresh segment, then removes the old ones. The
// condensed segment is written to a temp file, synced, and renamed before
// any old segment is deleted, so a crash at any instant leaves a journal
// that replays to the same table (duplicate entries merge idempotently).
type Store struct {
	dir string
	fs  fault.FS // filesystem seam; fault.OS in production, injectable in tests

	// Journal activity counters, exported via the server's metric registry
	// (colord_wal_*_total). Atomic so Counters never contends with an
	// in-flight fsync under st.mu.
	appends, fsyncs, compactions atomic.Int64

	mu       sync.Mutex
	f        fault.File // active segment; nil after a failed rotation until self-heal
	seg      int64      // active segment index
	segBytes int64      // bytes appended to the active segment
	maxSeg   int64      // rotation threshold
	dirty    bool       // unsynced appends pending
	segments int        // segment files on disk (including active)
	maintErr error      // last rotation/compaction failure; cleared on success
	maxID    int64      // highest numeric job ID ever journaled (survives forgetting)
	closed   bool
}

// storeStateForgotten is the journal-only state marking a job dropped from
// the service's bounded retention; replay drops the job with it.
const storeStateForgotten = "forgotten"

// errStoreCorrupt reports journal damage that a crash of this writer cannot
// produce (a torn record before the final segment).
var errStoreCorrupt = errors.New("service: job store corrupt")

const (
	storeSegPrefix   = "wal-"
	storeSegSuffix   = ".log"
	storeRecordLimit = 1 << 30 // sanity bound on one record's length prefix
)

func segName(seg int64) string {
	return fmt.Sprintf("%s%08d%s", storeSegPrefix, seg, storeSegSuffix)
}

func parseSegName(name string) (int64, bool) {
	if !strings.HasPrefix(name, storeSegPrefix) || !strings.HasSuffix(name, storeSegSuffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, storeSegPrefix), storeSegSuffix), 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// OpenStore opens (creating if needed) the journal in dir and replays it.
// The returned records are the condensed job table in ascending numeric job
// ID order; non-terminal entries are the jobs a crash interrupted. maxSeg
// caps a segment's size before rotation (<=0 selects 8 MiB).
func OpenStore(dir string, maxSeg int64) (*Store, []distcolor.JobRecord, error) {
	return OpenStoreFS(dir, maxSeg, nil)
}

// OpenStoreFS is OpenStore over an injectable filesystem (nil selects the
// real one). Every filesystem operation the store performs — including
// replay, truncation of torn tails, rotation, and compaction — goes
// through fsys, which is how the fault-injection tests script disk
// failures without byte surgery.
func OpenStoreFS(dir string, maxSeg int64, fsys fault.FS) (*Store, []distcolor.JobRecord, error) {
	if maxSeg <= 0 {
		maxSeg = 8 << 20
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: job store: %w", err)
	}
	st := &Store{dir: dir, fs: fsys, maxSeg: maxSeg}
	segs, err := st.listSegments()
	if err != nil {
		return nil, nil, err
	}
	table, maxID, tornSeg, tornOff, err := replaySegments(fsys, dir, segs)
	if err != nil {
		return nil, nil, err
	}
	st.maxID = maxID
	if tornSeg >= 0 {
		// Crash artifact in the final segment: truncate to the last intact
		// record so the next append lands on a clean boundary.
		path := filepath.Join(dir, segName(tornSeg))
		if err := fsys.Truncate(path, tornOff); err != nil {
			return nil, nil, fmt.Errorf("service: job store: truncating torn tail of %s: %w", path, err)
		}
	}
	// Append to a fresh segment rather than reopening the old tail: a
	// replayed journal compacts on open when it has piled up segments.
	next := int64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	if err := st.openSegment(next); err != nil {
		return nil, nil, err
	}
	st.segments = len(segs) + 1
	recs := sortedRecords(table)
	if len(segs) >= storeCompactSegments {
		if err := st.Compact(); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	return st, recs, nil
}

// storeCompactSegments is the segment count past which the journal compacts
// (on open and on rotation).
const storeCompactSegments = 4

func (st *Store) listSegments() ([]int64, error) {
	entries, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("service: job store: %w", err)
	}
	var segs []int64
	for _, e := range entries {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func (st *Store) openSegment(seg int64) error {
	f, err := st.fs.OpenFile(filepath.Join(st.dir, segName(seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	st.f, st.seg, st.segBytes, st.dirty = f, seg, 0, false
	return nil
}

// frame encodes one record payload in the journal's framing:
// [len uint32][crc32(payload) uint32][payload], little-endian. The replayer
// (replayBytes) and both writers (Append, compaction) share this layout.
func frame(payload []byte) []byte {
	f := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(payload))
	copy(f[8:], payload)
	return f
}

// Append journals one record. With sync, the record is fdatasync'd (along
// with any unsynced predecessors — the journal is strictly ordered) before
// Append returns. A nil return means the record is in the journal; segment
// rotation and compaction are maintenance that runs after the record is
// durable, so their failures never fail the append (they are retried on
// later appends and reported by Err).
func (st *Store) Append(rec distcolor.JobRecord, sync bool) error {
	rec.Schema = distcolor.JobRecordSchema
	payload, err := distcolor.CodecJSON.Encode(&rec)
	if err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	f := frame(payload)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.f == nil {
		// A previous rotation failed after sealing the old segment; heal by
		// opening a fresh one past everything on disk.
		if err := st.reopenPastDiskLocked(); err != nil {
			return err
		}
	}
	if _, err := st.f.Write(f); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	st.appends.Add(1)
	st.segBytes += int64(len(f))
	st.dirty = true
	if sync {
		if err := st.f.Sync(); err != nil {
			return fmt.Errorf("service: job store: %w", err)
		}
		st.fsyncs.Add(1)
		st.dirty = false
	}
	if st.segBytes >= st.maxSeg {
		// The record above is already durable: a maintenance failure here
		// must not fail the append — the caller would refuse a submission whose
		// journal entry survives and resurrects as a ghost job on restart.
		st.maintErr = st.rotateLocked()
	}
	return nil
}

// Probe appends one replay-invisible record with a full fsync, reporting
// whether the journal can currently make bytes durable. The record is a
// "forgotten" marker with an empty ID: jobIDNum("") is 0 so it never moves
// the ID high-water mark, and replay's merge deletes the (nonexistent)
// empty-ID table entry — a no-op. The degraded-mode prober uses it to
// detect that a failing disk has recovered.
func (st *Store) Probe() error {
	return st.Append(distcolor.JobRecord{ID: "", State: storeStateForgotten}, true)
}

// Err reports the last failed rotation/compaction (nil when the journal is
// healthy); maintenance failures never fail Append, so this is where they
// surface. A later successful rotation clears it.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.maintErr
}

// reopenPastDiskLocked restores an appendable state after a failed
// rotation: open a fresh segment numbered past every file on disk.
// st.mu must be held and st.f must be nil.
func (st *Store) reopenPastDiskLocked() error {
	segs, err := st.listSegments()
	if err != nil {
		return err
	}
	next := st.seg + 1
	if len(segs) > 0 && segs[len(segs)-1]+1 > next {
		next = segs[len(segs)-1] + 1
	}
	if err := st.openSegment(next); err != nil {
		return err
	}
	st.segments = len(segs) + 1
	return nil
}

// rotateLocked seals the active segment and opens the next one, compacting
// when segments have piled up. st.mu must be held. On failure the store
// stays usable: st.f is either the old (oversized, retried later) segment
// or nil, which the next Append heals via reopenPastDiskLocked.
func (st *Store) rotateLocked() error {
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("service: job store: %w", err) // st.f still open; retry next append
	}
	st.fsyncs.Add(1)
	if err := st.f.Close(); err != nil {
		st.f = nil
		return fmt.Errorf("service: job store: %w", err)
	}
	st.f = nil
	if err := st.openSegment(st.seg + 1); err != nil {
		return err
	}
	st.segments++
	if st.segments >= storeCompactSegments {
		return st.compactLocked()
	}
	return nil
}

// Compact rewrites the journal as one condensed record per retained job and
// deletes the superseded segments.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.compactLocked()
}

func (st *Store) compactLocked() (err error) {
	// Seal the active segment so the replay below sees every append. A
	// Sync failure leaves st.f open and usable: bail with the journal
	// merely uncompacted.
	if serr := st.f.Sync(); serr != nil {
		return fmt.Errorf("service: job store: %w", serr)
	}
	st.fsyncs.Add(1)
	cerr := st.f.Close()
	st.f = nil
	// From here the active handle is gone: whatever else happens, leave
	// the store appendable by reopening a fresh segment on any error path
	// (the success path opens its own).
	defer func() {
		if st.f == nil {
			if rerr := st.reopenPastDiskLocked(); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
	}()
	if cerr != nil {
		return fmt.Errorf("service: job store: %w", cerr)
	}
	segs, err := st.listSegments()
	if err != nil {
		return err
	}
	table, maxID, _, _, err := replaySegments(st.fs, st.dir, segs)
	if err != nil {
		return err
	}
	compactSeg := st.seg + 1
	tmp := filepath.Join(st.dir, segName(compactSeg)+".tmp")
	f, err := st.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	condensed := sortedRecords(table)
	// The ID high-water mark must survive compaction even when its job was
	// forgotten: a forgotten marker under the max ID keeps future replays'
	// maxID correct (replay drops it from the table but still counts it).
	var condensedMax int64
	if len(condensed) > 0 {
		condensedMax = jobIDNum(condensed[len(condensed)-1].ID)
	}
	if maxID > condensedMax {
		condensed = append(condensed, distcolor.JobRecord{
			Schema: distcolor.JobRecordSchema,
			ID:     "j" + strconv.FormatInt(maxID, 10),
			State:  storeStateForgotten,
		})
	}
	for _, rec := range condensed {
		payload, err := distcolor.CodecJSON.Encode(&rec)
		if err != nil {
			f.Close()
			return fmt.Errorf("service: job store: %w", err)
		}
		if _, err := f.Write(frame(payload)); err != nil {
			f.Close()
			return fmt.Errorf("service: job store: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: job store: %w", err)
	}
	st.fsyncs.Add(1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	// The rename is the commit point: after it, replay reaches the condensed
	// records (they sort after every old segment, so merged state is
	// unchanged even if deleting the old segments is interrupted).
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, segName(compactSeg))); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	if err := syncDir(st.fs, st.dir); err != nil {
		return err
	}
	for _, s := range segs {
		if err := st.fs.Remove(filepath.Join(st.dir, segName(s))); err != nil {
			return fmt.Errorf("service: job store: %w", err)
		}
	}
	if err := st.openSegment(compactSeg + 1); err != nil {
		return err
	}
	st.segments = 2 // condensed segment + fresh active one
	st.compactions.Add(1)
	return nil
}

func syncDir(fsys fault.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	return nil
}

// Counters reports the journal's cumulative activity: records appended,
// fsyncs issued, and successful compactions.
func (st *Store) Counters() (appends, fsyncs, compactions int64) {
	return st.appends.Load(), st.fsyncs.Load(), st.compactions.Load()
}

// Stats reports the journal's on-disk shape for metrics and tests.
func (st *Store) Stats() (segments int, activeBytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.segments, st.segBytes
}

// Close syncs and closes the active segment. The store rejects appends
// afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.f == nil { // a failed rotation already sealed the last segment
		return nil
	}
	if st.dirty {
		if err := st.f.Sync(); err != nil {
			st.f.Close()
			return fmt.Errorf("service: job store: %w", err)
		}
		st.fsyncs.Add(1)
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	return nil
}

// replaySegments merges the journal into a condensed job table. It also
// returns the highest numeric job ID seen in ANY record — forgotten jobs
// included, because ID assignment must never revisit an ID whose job was
// merely dropped from retention — and the segment index and byte offset of
// a torn tail in the final segment (tornSeg = -1 when the journal ends
// cleanly); a torn record anywhere else is corruption, not a crash
// artifact, and fails the replay.
func replaySegments(fsys fault.FS, dir string, segs []int64) (table map[string]*distcolor.JobRecord, maxID int64, tornSeg int64, tornOff int64, err error) {
	table = make(map[string]*distcolor.JobRecord)
	tornSeg = -1
	for i, seg := range segs {
		data, err := fsys.ReadFile(filepath.Join(dir, segName(seg)))
		if err != nil {
			return nil, 0, -1, 0, fmt.Errorf("service: job store: %w", err)
		}
		off, err := replayBytes(data, table, &maxID)
		if err != nil {
			return nil, 0, -1, 0, fmt.Errorf("service: job store: segment %s: %w", segName(seg), err)
		}
		if off < int64(len(data)) { // torn record
			if i != len(segs)-1 {
				return nil, 0, -1, 0, fmt.Errorf("%w: torn record at offset %d of non-final segment %s", errStoreCorrupt, off, segName(seg))
			}
			tornSeg, tornOff = seg, off
		}
	}
	return table, maxID, tornSeg, tornOff, nil
}

// MaxJobID reports the highest numeric job ID the journal has ever held,
// including jobs later dropped by retention. Recovery resumes ID
// assignment past it; handing out a dropped job's ID to new work would
// silently alias two jobs for any client still holding the old ID.
func (st *Store) MaxJobID() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.maxID
}

// replayBytes merges the intact records of one segment into table (bumping
// maxID for every record, forgotten ones included) and returns the offset
// just past the last intact record (== len(data) when the segment ends
// cleanly). Damaged framing stops the replay at the preceding record; a
// record with an unknown schema is an error, not a crash artifact.
func replayBytes(data []byte, table map[string]*distcolor.JobRecord, maxID *int64) (int64, error) {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, nil
		}
		if len(rest) < 8 {
			return off, nil // torn header
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		if n > storeRecordLimit || 8+n > int64(len(rest)) {
			return off, nil // torn or nonsense payload length
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, nil // torn payload
		}
		var rec distcolor.JobRecord
		if err := distcolor.CodecJSON.Decode(payload, &rec); err != nil {
			// The CRC held, so the payload is byte-exact what the writer
			// framed — undecodable JSON is a writer bug, not a crash tear.
			return off, fmt.Errorf("crc-intact record does not decode: %w", err)
		}
		if rec.Schema != distcolor.JobRecordSchema {
			return off, fmt.Errorf("job record schema %d, this build reads %d", rec.Schema, distcolor.JobRecordSchema)
		}
		if id := jobIDNum(rec.ID); id > *maxID {
			*maxID = id
		}
		mergeRecord(table, &rec)
		off += 8 + n
	}
}

// mergeRecord folds one journal entry into the condensed table: later
// entries win on state/outcome, the submission entry contributes the
// request, and the "forgotten" retention marker drops the job.
func mergeRecord(table map[string]*distcolor.JobRecord, rec *distcolor.JobRecord) {
	if rec.State == storeStateForgotten {
		delete(table, rec.ID)
		return
	}
	cur := table[rec.ID]
	if cur == nil {
		cp := *rec
		table[rec.ID] = &cp
		return
	}
	cur.State = rec.State
	if rec.Request != nil {
		cur.Request = rec.Request
	}
	if rec.Response != nil {
		cur.Response = rec.Response
	}
	if rec.Error != "" {
		cur.Error = rec.Error
	}
	if rec.WallMS != 0 {
		cur.WallMS = rec.WallMS
	}
	if rec.CacheHit {
		cur.CacheHit = rec.CacheHit
	}
	// Attempts only grows: replay may see the entries out of their logical
	// order after compaction, and a later lower value must never launder a
	// poisoned job back below the quarantine threshold.
	if rec.Attempts > cur.Attempts {
		cur.Attempts = rec.Attempts
	}
}

// jobIDNum extracts the numeric suffix of a job ID ("j17" → 17); recovery
// resumes ID assignment past the maximum so restarted servers never reuse
// an ID.
func jobIDNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func sortedRecords(table map[string]*distcolor.JobRecord) []distcolor.JobRecord {
	out := make([]distcolor.JobRecord, 0, len(table))
	for _, rec := range table {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return jobIDNum(out[i].ID) < jobIDNum(out[j].ID) })
	return out
}
