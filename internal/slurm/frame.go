package slurm

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/wal"
)

// Journal file formats. The v1 format (PRs 1–4) is plain JSONL: readable,
// but a bit-flipped record that still parses as JSON replays silently into
// divergent state. The v2 format is the internal/wal line discipline under
// a header line — every record a CRC32C-checked frame, and snapshot files
// sealed by a trailing manifest:
//
//	#mini-slurm-journal v2 crc32c          ← header line (file is v2)
//	=LLLLLLLL CCCCCCCC {"seq":1,...}       ← frame (see internal/wal)
//	!NNNNNNNN CCCCCCCC                     ← manifest (snapshots only)
//
// The manifest seals snapshot files, which are written atomically and must
// never be torn. Files whose first line is not the header are read as v1
// JSONL, so journals written by earlier releases load transparently; the
// controller keeps appending v1 lines to such a journal until the next
// compaction rewrites the pair as v2.
//
// Within one file, sequence numbers must be strictly consecutive: the
// controller stamps Seq = prev+1 on every entry, so a gap or regression
// inside a file is damage, not history.

const (
	// v2Header is the first line of every v2 journal or snapshot file.
	v2Header = "#mini-slurm-journal v2 crc32c"

	journalV1 = 1
	journalV2 = 2
)

// encodeSnapshot renders entries as a complete v2 snapshot file: header,
// one frame per entry, trailing manifest sealing the whole file.
func encodeSnapshot(entries []Entry) ([]byte, error) {
	buf := append([]byte(v2Header), '\n')
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			return nil, fmt.Errorf("slurm: encode entry %d: %w", e.Seq, err)
		}
		buf = wal.AppendFrame(buf, payload)
	}
	return wal.AppendManifest(buf, len(entries)), nil
}

// Damage describes one damaged record found while scanning a journal or
// snapshot file. Offsets let fsck point at the exact bytes; Raw carries
// them into the quarantine sidecar.
type Damage = wal.Damage

// fileScan is the result of verifying one journal or snapshot file.
type fileScan struct {
	path    string
	version int // 0 = empty/missing, journalV1, journalV2
	entries []Entry
	// validLen is the byte length of the verified prefix: everything a
	// salvage may keep. Bytes past validLen belong to damaged records.
	validLen int64
	damage   []Damage
	// torn reports that all damage is an unverifiable tail — the expected
	// artifact of a crash mid-append — safe to truncate away. Mid-log
	// damage (a verifiable record exists after the first damaged one) is
	// corruption, never torn.
	torn bool
	// manifest reports a verified trailing manifest (v2 snapshots).
	manifest bool
	// size is the total file length scanned.
	size int64

	prevSeq int64 // Seq of the last entry taken (valid once entries is non-empty)
}

// scanFile verifies one journal (wantManifest=false) or snapshot
// (wantManifest=true) file. It never fails on damage — damage is reported
// in the scan for the caller's policy to act on; only the entries of the
// verified prefix are returned.
func scanFile(data []byte, path string, wantManifest bool) *fileScan {
	s := &fileScan{path: path, size: int64(len(data))}
	if len(data) == 0 {
		return s
	}
	if !bytes.HasPrefix(data, []byte(v2Header+"\n")) {
		s.version = journalV1
		s.apply(wal.Scan(data, 0, s.acceptV1, verifiableV1))
		return s
	}
	s.version = journalV2
	s.apply(wal.Scan(data, 1, func(ln wal.Line) string { return s.acceptV2(data, ln, wantManifest) }, nil))
	if wantManifest && !s.manifest && len(s.damage) == 0 {
		// Snapshots are written atomically: a clean scan with no manifest
		// means the file was cut off exactly at a frame boundary.
		s.damage = append(s.damage, Damage{Line: bytes.Count(data, []byte{'\n'}) + 1, Offset: s.size, Reason: "missing manifest"})
		s.torn = true
	}
	// Damage after a verified manifest is never a torn append.
	s.torn = s.torn && !s.manifest
	return s
}

func (s *fileScan) apply(r wal.Result) {
	s.validLen, s.damage, s.torn = r.ValidLen, r.Damage, r.Torn
}

// acceptV2 verifies one line of a v2 file: a frame holding the next entry,
// or a snapshot's manifest.
func (s *fileScan) acceptV2(data []byte, ln wal.Line, wantManifest bool) string {
	switch {
	case len(ln.Text) > 0 && ln.Text[0] == '!':
		if !wantManifest {
			return "unexpected manifest in append-only journal"
		}
		frames, sum, ok := wal.ParseManifest(ln.Text)
		switch {
		case !ok:
			return "malformed manifest"
		case int(frames) != len(s.entries):
			return fmt.Sprintf("manifest frame count %d, file has %d", frames, len(s.entries))
		case wal.Checksum(data[:ln.Off]) != sum:
			return "manifest checksum mismatch"
		}
		s.manifest = true
		return ""
	case s.manifest:
		return "data after manifest"
	}
	payload, reason := wal.ParseFrame(ln.Text)
	if reason != "" {
		return reason
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return fmt.Sprintf("payload parse error: %v", err)
	}
	return s.take(e)
}

// acceptV1 verifies one line of a v1 JSONL file; blank lines are skipped.
func (s *fileScan) acceptV1(ln wal.Line) string {
	if len(ln.Text) == 0 {
		return ""
	}
	var e Entry
	if json.Unmarshal(ln.Text, &e) != nil {
		return "parse error"
	}
	return s.take(e)
}

// verifiableV1 decides whether a v1 line after damage proves mid-log
// corruption: a whole entry does, and so does a checksummed v2 frame — one
// inside a "v1" file means the v2 header itself was damaged, and truncating
// there would silently discard the whole log.
func verifiableV1(ln wal.Line) bool {
	var e Entry
	if json.Unmarshal(ln.Text, &e) == nil {
		return true
	}
	_, reason := wal.ParseFrame(ln.Text)
	return reason == ""
}

// take appends e to the verified prefix, enforcing the strictly-consecutive
// sequence invariant within one file. A torn write whose fragment still
// parses as JSON — or a bit flip in a v1 seq digit — shows up here as a
// regression or gap.
func (s *fileScan) take(e Entry) string {
	if len(s.entries) > 0 && e.Seq != s.prevSeq+1 {
		if e.Seq <= s.prevSeq {
			return fmt.Sprintf("out-of-sequence record (seq %d after %d)", e.Seq, s.prevSeq)
		}
		return fmt.Sprintf("sequence gap (seq %d after %d)", e.Seq, s.prevSeq)
	}
	s.prevSeq = e.Seq
	s.entries = append(s.entries, e)
	return ""
}
