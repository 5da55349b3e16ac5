package slurm

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync"

	"repro/internal/acct"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Crash recovery. slurmctld survives restarts by writing StateSaveLocation;
// this controller does the same with a write-ahead journal of every external
// operation (submit, cancel, advance, node state changes). The simulation is
// deterministic, so replaying the journal against a fresh controller rebuilds
// the exact pre-crash state — queue, running set, node states, and clock.
// Completions additionally append audit entries embedding the acct.Record
// format; replay skips them (they are outputs, not inputs), but they make the
// journal a complete accounting trail on their own.
//
// A snapshot compacts the log: the journal's entries are folded into
// snapshot.jsonl (v2 frames sealed by a manifest, see frame.go) with an
// atomic tmp+rename, and the journal truncated. Recovery reads snapshot
// then journal, verifying every record. The recovery state machine:
//
//   - clean: every record verifies → replay everything.
//   - torn tail: the journal's damage is confined to an unverifiable tail
//     (crash mid-append) → truncate it away, replay the prefix. The torn
//     bytes were never acknowledged.
//   - corrupt: a record fails verification with verifiable records after it
//     (bit rot, mid-file truncation), or a snapshot — which is written
//     atomically and can never legally be torn — is damaged at all. Policy
//     CorruptFail (default) refuses to start, naming `mini-slurm fsck`;
//     CorruptQuarantine salvages the committed prefix, copies the damaged
//     records to quarantine.jsonl, and starts read-only (DEGRADED).
//
// Recovery never silently skips a damaged record and continues past it:
// the replayed state is always a committed prefix or a loud refusal.
//
// All file I/O goes through vfs.FS so tests can inject torn writes, fsync
// failures, bit rot, and crash points on every path below.

// Entry is one journal line: an external operation to replay, or an audit
// record (Op "record") to skip.
type Entry struct {
	Seq int64  `json:"seq"`
	Op  string `json:"op"`
	// Epoch is the HA term the entry was written under. Standalone
	// controllers leave it zero (omitted), keeping the journal format
	// byte-identical to pre-HA releases; replicated controllers stamp every
	// entry so a deposed primary's stale appends are detectable (see ha.go).
	Epoch int64 `json:"epoch,omitempty"`
	// Submit arguments; ID doubles as the expected assigned job ID, which
	// replay verifies to catch divergence.
	App      string  `json:"app,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Walltime float64 `json:"walltime,omitempty"`
	Runtime  float64 `json:"runtime,omitempty"`
	Name     string  `json:"name,omitempty"`
	After    []int64 `json:"after,omitempty"`
	ID       int64   `json:"id,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Node     int     `json:"node,omitempty"`
	// Token is the submit idempotency token (empty when the client sent
	// none); journaling it makes submit dedupe survive crash recovery.
	Token string `json:"token,omitempty"`
	// Record is the audit payload of a completion entry.
	Record *acct.Record `json:"record,omitempty"`
}

// Typed journal failures. The append path and the compaction path are wrapped
// distinctly so the overload circuit breaker's operators can tell "stable
// storage refused the write" from "folding the log failed" when the
// controller enters DEGRADED mode; errors.Is works against both sentinels.
var (
	// ErrJournalAppend wraps failures to durably append an entry.
	ErrJournalAppend = errors.New("slurm: journal append failed")
	// ErrJournalCompact wraps failures to fold the journal into the
	// snapshot (or to rewrite it during an HA full resync).
	ErrJournalCompact = errors.New("slurm: journal compaction failed")
)

// journalOpError tags an underlying storage error with the path (append vs
// compact) it failed on. errors.Is matches the tag and the wrapped error.
type journalOpError struct {
	kind error
	err  error
}

func (e *journalOpError) Error() string        { return e.kind.Error() + ": " + e.err.Error() }
func (e *journalOpError) Is(target error) bool { return target == e.kind }
func (e *journalOpError) Unwrap() error        { return e.err }

func journalErr(kind, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, kind) {
		return err // already tagged (compact failures inside append)
	}
	return &journalOpError{kind: kind, err: err}
}

// journalSyncErrors counts directory-fsync failures across the process so
// soak runs can detect flaky storage (expvar "journal_sync_errors").
var journalSyncErrors = expvar.NewInt("journal_sync_errors")

var syncDirWarnOnce sync.Once

// syncDir fsyncs a directory so renames and file creations inside it survive
// power loss. Filesystems that don't support directory fsync report an error
// we tolerate — on those, the rename itself is the best available — but
// every failure is counted in journal_sync_errors and the first one is
// logged, so persistent storage flakiness is visible instead of silent.
func syncDir(fsys vfs.FS, dir string) {
	if err := fsys.SyncDir(dir); err != nil {
		journalSyncErrors.Add(1)
		syncDirWarnOnce.Do(func() {
			log.Printf("slurm: journal: directory fsync of %s failed (renames may not survive power loss; counting in journal_sync_errors): %v", dir, err)
		})
	}
}

// journal is the append side of the write-ahead log. Every append is synced
// to stable storage before the operation is acknowledged. Sequence numbers
// are assigned by the controller (which also owns the in-memory copy of the
// log for replication); the journal persists entries exactly as given.
type journal struct {
	fs  vfs.FS
	dir string
	// w appends to the live journal; a failed append rolls the file back
	// to its committed length (see internal/wal). w is nil after a failed
	// compaction step; the next append re-establishes it.
	w *wal.Appender
	// version is the live file's format: v2 checksummed frames for new
	// files, plain JSONL for a v1 file inherited from an earlier release
	// (mixing formats inside one file would corrupt it; the next compaction
	// rewrites it as v2).
	version int
	every   int // compact after this many appends (0 = never)
	ops     int // appends since the last compaction

	// testAppendErr, when set, is consulted before each append; a non-nil
	// return aborts the append with that error. Tests use it to simulate a
	// failing fsync path and exercise the circuit breaker.
	testAppendErr func(Entry) error
}

func snapshotFile(dir string) string   { return filepath.Join(dir, "snapshot.jsonl") }
func journalFile(dir string) string    { return filepath.Join(dir, "journal.jsonl") }
func quarantineFile(dir string) string { return filepath.Join(dir, "quarantine.jsonl") }

// createJournalV2 truncate-creates path as an empty v2 journal: header line
// written and synced so the file is self-describing from byte zero.
func createJournalV2(fsys vfs.FS, path string) (*wal.Appender, error) {
	w, err := wal.Create(fsys, path, []byte(v2Header+"\n"))
	if err != nil {
		return nil, fmt.Errorf("slurm: create journal %s: %w", path, err)
	}
	return w, nil
}

// CorruptPolicy selects what recovery does with a journal or snapshot
// record that fails verification mid-log (torn tails are always salvaged).
type CorruptPolicy string

const (
	// CorruptFail (the default) refuses to start on corruption, directing
	// the operator at `mini-slurm fsck`.
	CorruptFail CorruptPolicy = "fail"
	// CorruptQuarantine salvages the committed prefix, copies damaged
	// records to quarantine.jsonl, and starts the controller read-only
	// (DEGRADED) so an operator or an HA full resync can reconcile.
	CorruptQuarantine CorruptPolicy = "quarantine"
)

// Validate checks the policy name ("" selects CorruptFail).
func (p CorruptPolicy) Validate() error {
	switch p {
	case "", CorruptFail, CorruptQuarantine:
		return nil
	}
	return fmt.Errorf("slurm: unknown JournalCorruptPolicy %q (want FAIL or QUARANTINE)", string(p))
}

// FileDamage is one damaged record, attributed to its file, as reported by
// recovery and fsck.
type FileDamage struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Offset int64  `json:"offset"`
	Reason string `json:"reason"`
	// RawB64 carries the damaged bytes (base64) into quarantine sidecars.
	RawB64 string `json:"raw_b64,omitempty"`
}

// RecoveryInfo summarizes what opening a journal directory found and did.
type RecoveryInfo struct {
	// Entries is the number of committed entries recovered.
	Entries int
	// SnapshotVersion and JournalVersion are the on-disk formats found
	// (0 = file empty or missing).
	SnapshotVersion, JournalVersion int
	// TornBytes is the size of the unacknowledged torn tail truncated from
	// the journal (0 when the tail was clean).
	TornBytes int64
	// Quarantined reports that corruption was salvaged under
	// CorruptQuarantine: damaged records are in quarantine.jsonl and the
	// controller must run read-only.
	Quarantined bool
	// Damage lists every record that failed verification.
	Damage []FileDamage
}

// scanPath reads and verifies one file; a missing file scans as empty.
func scanPath(fsys vfs.FS, path string, wantManifest bool) (*fileScan, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &fileScan{path: path}, nil
		}
		return nil, fmt.Errorf("slurm: read journal %s: %w", path, err)
	}
	return scanFile(data, path, wantManifest), nil
}

// scanPair reads and verifies the snapshot+journal pair in dir.
func scanPair(fsys vfs.FS, dir string) (snap, tail *fileScan, err error) {
	if snap, err = scanPath(fsys, snapshotFile(dir), true); err != nil {
		return nil, nil, err
	}
	if tail, err = scanPath(fsys, journalFile(dir), false); err != nil {
		return nil, nil, err
	}
	return snap, tail, nil
}

// readEntries parses a journal file (either format version), tolerating a
// torn tail and failing loudly on any other damage. Test helper and v1
// compatibility reader.
func readEntries(path string) ([]Entry, error) {
	scan, err := scanPath(vfs.OS{}, path, false)
	if err != nil {
		return nil, err
	}
	if len(scan.damage) > 0 && !scan.torn {
		d := scan.damage[0]
		return nil, fmt.Errorf("slurm: journal %s: line %d (offset %d): %s", path, d.Line, d.Offset, d.Reason)
	}
	return scan.entries, nil
}

// foldScans merges a snapshot scan and a journal scan into the committed
// prefix. A crash between compaction's snapshot rename and journal
// truncation leaves the journal's entries duplicated at the snapshot's
// tail; the strictly increasing Seq makes the overlap detectable, so it is
// dropped instead of poisoning replay. A sequence gap — the log claims
// history it cannot connect to — makes everything from the gap on
// unreachable: those records are returned separately, never silently
// replayed.
func foldScans(snap, tail *fileScan) (entries, unreachable []Entry, gap string) {
	var last int64
	consume := func(list []Entry, src string) {
		for i, e := range list {
			if gap != "" {
				unreachable = append(unreachable, list[i:]...)
				return
			}
			if e.Seq <= last {
				continue // overlap from a crash mid-compaction
			}
			if e.Seq != last+1 {
				gap = fmt.Sprintf("%s: sequence gap (log connects through seq %d, next record is seq %d)", src, last, e.Seq)
				unreachable = append(unreachable, list[i:]...)
				return
			}
			entries = append(entries, e)
			last = e.Seq
		}
	}
	consume(snap.entries, "snapshot")
	consume(tail.entries, "journal")
	return entries, unreachable, gap
}

func damageList(file string, ds []Damage, withRaw bool) []FileDamage {
	out := make([]FileDamage, 0, len(ds))
	for _, d := range ds {
		fd := FileDamage{File: file, Line: d.Line, Offset: d.Offset, Reason: d.Reason}
		if withRaw {
			fd.RawB64 = b64(d.Raw)
		}
		out = append(out, fd)
	}
	return out
}

// unreachableDamage lists the records stranded past a sequence gap, so a
// salvage sets them aside instead of silently dropping them.
func unreachableDamage(unreachable []Entry, gap string) []FileDamage {
	out := make([]FileDamage, 0, len(unreachable))
	for _, e := range unreachable {
		payload, _ := json.Marshal(e) // Entry always marshals
		out = append(out, FileDamage{File: "journal.jsonl", Reason: "unreachable after " + gap, RawB64: b64(payload)})
	}
	return out
}

// openJournal opens (creating if needed) the state directory, verifies the
// snapshot+journal pair, and returns the append handle, every committed
// entry, and a recovery report. Damage handling follows the recovery state
// machine documented at the top of this file.
func openJournal(fsys vfs.FS, dir string, every int, pol CorruptPolicy) (*journal, []Entry, *RecoveryInfo, error) {
	if pol == "" {
		pol = CorruptFail
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("slurm: state dir: %w", err)
	}
	// A leftover compaction temp file is a crash before the rename; the
	// snapshot+journal pair is authoritative.
	fsys.Remove(snapshotFile(dir) + ".tmp")
	snap, tail, err := scanPair(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	info := &RecoveryInfo{SnapshotVersion: snap.version, JournalVersion: tail.version}

	// Snapshots are written atomically (tmp+fsync+rename): they can never
	// legally be torn, so any damage at all is corruption.
	var quarantined []FileDamage
	if len(snap.damage) > 0 {
		if pol != CorruptQuarantine {
			d := snap.damage[0]
			return nil, nil, nil, fmt.Errorf(
				"slurm: snapshot %s corrupt: line %d (offset %d): %s (run `mini-slurm fsck` to inspect, `-repair` to salvage)",
				snap.path, d.Line, d.Offset, d.Reason)
		}
		quarantined = append(quarantined, damageList("snapshot.jsonl", snap.damage, true)...)
		// Nothing after a damaged snapshot record can be trusted to
		// connect; drop the journal's claim to extend it via the gap check
		// below (the salvaged snapshot prefix ends before the journal
		// starts, producing a sequence gap unless the overlap covers it).
	}
	if len(tail.damage) > 0 && !tail.torn {
		if pol != CorruptQuarantine {
			d := tail.damage[0]
			return nil, nil, nil, fmt.Errorf(
				"slurm: journal %s corrupt: line %d (offset %d): %s (run `mini-slurm fsck` to inspect, `-repair` to salvage)",
				tail.path, d.Line, d.Offset, d.Reason)
		}
		quarantined = append(quarantined, damageList("journal.jsonl", tail.damage, true)...)
	}

	entries, unreachable, gap := foldScans(snap, tail)
	if gap != "" {
		if pol != CorruptQuarantine && len(quarantined) == 0 {
			return nil, nil, nil, fmt.Errorf(
				"slurm: %s: %s (run `mini-slurm fsck` to inspect, `-repair` to salvage)", dir, gap)
		}
		quarantined = append(quarantined, unreachableDamage(unreachable, gap)...)
	}

	// Torn journal tail: the expected crash-mid-append artifact. Truncate
	// the fragment physically — appending after it would fuse the torn
	// bytes with the next record's line and lose an acknowledged entry on
	// the following recovery.
	if tail.torn && tail.validLen < tail.size {
		info.TornBytes = tail.size - tail.validLen
		if err := fsys.Truncate(journalFile(dir), tail.validLen); err != nil {
			return nil, nil, nil, fmt.Errorf("slurm: truncate torn journal tail: %w", err)
		}
	}

	if len(quarantined) > 0 {
		info.Quarantined = true
		info.Damage = quarantined
		if err := writeQuarantine(fsys, dir, quarantined); err != nil {
			return nil, nil, nil, err
		}
	} else if len(tail.damage) > 0 {
		info.Damage = damageList("journal.jsonl", tail.damage, false)
	}

	j := &journal{fs: fsys, dir: dir, every: every, ops: len(tail.entries)}
	if err := j.openWriter(tail); err != nil {
		return nil, nil, nil, err
	}
	// Make the freshly created files' directory entries durable too: an
	// fsynced journal line in a file the directory has lost is still lost.
	syncDir(fsys, dir)
	info.Entries = len(entries)
	return j, entries, info, nil
}

// openWriter establishes the append handle on the scanned live journal: a
// fresh v2 file when nothing verified survives, otherwise appends after the
// verified prefix in the file's own format.
func (j *journal) openWriter(tail *fileScan) (err error) {
	if tail.validLen == 0 || tail.version == 0 {
		j.w, err = createJournalV2(j.fs, journalFile(j.dir))
		j.version = journalV2
		return err
	}
	if j.w, err = wal.Open(j.fs, journalFile(j.dir), tail.validLen); err != nil {
		return fmt.Errorf("slurm: open journal: %w", err)
	}
	j.version = tail.version
	return nil
}

// ensureWriter re-establishes the append handle after a failed compaction
// step left it closed, so a transient storage fault heals instead of
// wedging the journal until restart.
func (j *journal) ensureWriter() error {
	if j.w != nil {
		return nil
	}
	scan, err := scanPath(j.fs, journalFile(j.dir), false)
	if err != nil {
		return err
	}
	if len(scan.damage) > 0 {
		return fmt.Errorf("slurm: journal %s damaged after failed compaction (%s); refusing to append", scan.path, scan.damage[0].Reason)
	}
	return j.openWriter(scan)
}

// append durably logs one entry (whose Seq the caller has already assigned),
// then compacts if the journal grew past the snapshot threshold. Append-path
// failures wrap ErrJournalAppend; compaction failures wrap ErrJournalCompact.
// A failed append leaves the file at its committed length: the retry
// reissues the same Seq, and a duplicate left on disk would make recovery
// refuse the whole journal as out-of-sequence corruption.
func (j *journal) append(e Entry) error {
	if j.testAppendErr != nil {
		if err := j.testAppendErr(e); err != nil {
			return journalErr(ErrJournalAppend, err)
		}
	}
	if err := j.ensureWriter(); err != nil {
		return journalErr(ErrJournalAppend, err)
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return journalErr(ErrJournalAppend, fmt.Errorf("slurm: encode entry %d: %w", e.Seq, err))
	}
	var line []byte
	if j.version == journalV2 {
		line = wal.AppendFrame(nil, payload)
	} else {
		line = append(payload, '\n')
	}
	if err := j.w.Append(line, true); err != nil {
		return journalErr(ErrJournalAppend, fmt.Errorf("slurm: journal entry %d: %w", e.Seq, err))
	}
	j.ops++
	if j.every > 0 && j.ops >= j.every {
		return j.compact()
	}
	return nil
}

// writeSnapshotAtomic writes data to the snapshot temp file in dir, syncs
// it, atomically renames it over the snapshot, and syncs the directory.
// Compaction, HA resync and fsck repair all write snapshots through it.
func writeSnapshotAtomic(fsys vfs.FS, dir string, data []byte) error {
	tmp := snapshotFile(dir) + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, snapshotFile(dir)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// Without a directory fsync the rename may not survive power loss on
	// some filesystems — the data would be safe in the temp file, but the
	// snapshot name could still point at the old content.
	syncDir(fsys, dir)
	return nil
}

// compact folds the journal into the snapshot: verify and merge both files,
// write the folded entries as a manifest-sealed v2 snapshot via tmp+rename,
// then truncate the journal (to a fresh v2 header — this is where a v1
// journal inherited from an earlier release migrates to v2). The old append
// handle stays live until the temp snapshot is durable, so a fault in the
// fold leaves the append path healthy. A crash at any point leaves a
// recoverable pair of files.
func (j *journal) compact() error {
	snap, tail, err := scanPair(j.fs, j.dir)
	if err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	// Compaction rewrites history; damaged history must never be folded
	// into a "clean" snapshot. The files verified at open, so damage here
	// means the disk rotted underneath the running controller.
	if len(snap.damage) > 0 {
		return journalErr(ErrJournalCompact, fmt.Errorf("snapshot %s damaged (%s); run fsck", snap.path, snap.damage[0].Reason))
	}
	if len(tail.damage) > 0 {
		return journalErr(ErrJournalCompact, fmt.Errorf("journal %s damaged (%s); run fsck", tail.path, tail.damage[0].Reason))
	}
	entries, _, gap := foldScans(snap, tail)
	if gap != "" {
		return journalErr(ErrJournalCompact, fmt.Errorf("refusing to fold: %s", gap))
	}
	return j.rewrite(entries)
}

// rewrite atomically replaces the journal's entire content with entries:
// they land in a fresh snapshot and the live journal is truncated. A
// compaction folds the log this way, and a standby that accepted a full
// resync from the primary persists the received log in one step (a resync
// is morally a compaction, and fails as one). On a failed truncation the
// append handle is left nil; the next append retries via ensureWriter.
func (j *journal) rewrite(entries []Entry) error {
	data, err := encodeSnapshot(entries)
	if err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	if err := writeSnapshotAtomic(j.fs, j.dir, data); err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	if err := j.close(); err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	w, err := createJournalV2(j.fs, journalFile(j.dir))
	if err != nil {
		return journalErr(ErrJournalCompact, err)
	}
	syncDir(j.fs, j.dir)
	j.w, j.version, j.ops = w, journalV2, 0
	return nil
}

// close syncs and releases the append handle.
func (j *journal) close() error {
	if j.w == nil {
		return nil
	}
	err := j.w.Sync()
	if cerr := j.w.Close(); err == nil {
		err = cerr
	}
	j.w = nil
	return err
}
