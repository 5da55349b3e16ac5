// Package wal is the write-ahead log discipline under both journals of the
// system: the controller journal (internal/slurm) and the dispatcher's
// campaign journal (internal/fabric). It owns the line format, line
// splitting, the recovery scan, and the append handle; the journals keep
// only their headers, record types and replay rules.
//
// A log file is line-oriented, one record per line, and every record is a
// self-verifying frame:
//
//	=LLLLLLLL CCCCCCCC payload\n    ← hex payload length, hex CRC32C of the
//	                                   payload, the payload itself
//
// The length prefix makes a torn append detectable even when the torn bytes
// happen to look like a record; the CRC catches bit rot. Sealed files (the
// controller's snapshots) end in a manifest line, "!NNNNNNNN CCCCCCCC":
// hex frame count and the CRC32C of every preceding byte.
//
// Recovery scans a file and classifies its damage by one question: does a
// CRC-valid frame follow the first damaged line? If not, the damage is a
// torn tail — the expected artifact of a crash mid-append, safe to truncate
// away. If so, the file is corrupt, and replaying past the damage would
// skip a committed record.
//
// The append handle keeps the file a whole number of frames: a write or
// fsync that fails is rolled back by truncating the file to its length
// before that append, so a later record never lands behind unverifiable
// bytes. Only when that truncate fails does the handle wedge and refuse
// every further write; the committed prefix plus one torn tail is then what
// the next open finds.
package wal

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"

	"repro/internal/vfs"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C (Castagnoli) of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// NewHash returns a streaming CRC32C, for checksums over several buffers.
func NewHash() hash.Hash32 { return crc32.New(castagnoli) }

const (
	// frameMetaLen is len("=LLLLLLLL CCCCCCCC ") — the fixed-width frame
	// preamble before the payload.
	frameMetaLen = 19
	// manifestLen is len("!NNNNNNNN CCCCCCCC") — a manifest line's exact size.
	manifestLen = 18
)

func appendHex8(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>uint(shift)&0xf])
	}
	return dst
}

func parseHex8(s []byte) (uint32, bool) {
	if len(s) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range s {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// AppendFrame appends the frame line of payload, newline included.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, '=')
	dst = appendHex8(dst, uint32(len(payload)))
	dst = append(dst, ' ')
	dst = appendHex8(dst, Checksum(payload))
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// ParseFrame verifies one frame line (without its newline) and returns the
// payload. A non-empty reason describes the damage.
func ParseFrame(text []byte) (payload []byte, reason string) {
	if len(text) < frameMetaLen || text[0] != '=' || text[9] != ' ' || text[18] != ' ' {
		return nil, "malformed frame"
	}
	length, ok1 := parseHex8(text[1:9])
	sum, ok2 := parseHex8(text[10:18])
	if !ok1 || !ok2 {
		return nil, "malformed frame header"
	}
	payload = text[frameMetaLen:]
	if uint32(len(payload)) != length {
		return nil, fmt.Sprintf("length mismatch (header %d, payload %d)", length, len(payload))
	}
	if Checksum(payload) != sum {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// AppendManifest seals buf: it appends the manifest line carrying the frame
// count and the CRC32C of every byte of buf.
func AppendManifest(buf []byte, frames int) []byte {
	sum := Checksum(buf)
	buf = append(buf, '!')
	buf = appendHex8(buf, uint32(frames))
	buf = append(buf, ' ')
	buf = appendHex8(buf, sum)
	return append(buf, '\n')
}

// ParseManifest decodes a manifest line (without its newline) into its
// frame count and checksum; ok is false for a malformed line.
func ParseManifest(text []byte) (frames, sum uint32, ok bool) {
	if len(text) != manifestLen || text[0] != '!' || text[9] != ' ' {
		return 0, 0, false
	}
	frames, ok1 := parseHex8(text[1:9])
	sum, ok2 := parseHex8(text[10:18])
	return frames, sum, ok1 && ok2
}

// Line is one physical line of a log file. Terminated reports whether its
// newline was present: a final line without one is a torn append.
type Line struct {
	Off        int64
	Text       []byte
	Terminated bool
}

// End is the offset just past the line, newline included.
func (ln Line) End() int64 {
	end := ln.Off + int64(len(ln.Text))
	if ln.Terminated {
		end++
	}
	return end
}

// SplitLines cuts data into lines. The texts alias data.
func SplitLines(data []byte) []Line {
	var lines []Line
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, Line{Off: int64(start), Text: data[start:i], Terminated: true})
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, Line{Off: int64(start), Text: data[start:], Terminated: false})
	}
	return lines
}

// Damage is one damaged line found by Scan. Raw carries its bytes, newline
// included when present, for quarantine sidecars.
type Damage struct {
	Line   int    `json:"line"`   // 1-based line number
	Offset int64  `json:"offset"` // byte offset of the line start
	Reason string `json:"reason"`
	Raw    []byte `json:"-"`
}

// Result is what Scan found in one file.
type Result struct {
	// ValidLen is the length of the verified prefix: everything a salvage
	// may keep. Bytes past it belong to damaged lines.
	ValidLen int64
	// Damage lists the first damaged line and every line after it.
	Damage []Damage
	// Torn reports damage confined to an unverifiable tail: no line after
	// the first damage is verifiable. Damage with a verifiable line after
	// it is corruption, never torn.
	Torn bool
}

// Scan verifies data line by line after its first skip lines (the header,
// which the caller has checked). Each terminated line of the verified
// prefix goes to accept, which returns "" to take it or the reason it is
// damaged; an unterminated line is a torn record. From the first damage on
// nothing is trusted: every later line is recorded as damage, and
// verifiable — a CRC-valid frame when nil — decides whether a terminated
// one proves the damage is mid-log corruption rather than a torn tail.
func Scan(data []byte, skip int, accept func(Line) string, verifiable func(Line) bool) Result {
	if verifiable == nil {
		verifiable = func(ln Line) bool {
			_, reason := ParseFrame(ln.Text)
			return reason == ""
		}
	}
	var r Result
	lines := SplitLines(data)
	if skip > len(lines) {
		skip = len(lines)
	}
	if skip > 0 {
		r.ValidLen = lines[skip-1].End()
	}
	validAfterDamage := false
	for i, ln := range lines[skip:] {
		lineNo := skip + i + 1
		if len(r.Damage) > 0 {
			r.addDamage(ln, lineNo, "unverified after damage")
			if ln.Terminated && verifiable(ln) {
				validAfterDamage = true
			}
			continue
		}
		reason := "torn record (no trailing newline)"
		if ln.Terminated {
			reason = accept(ln)
		}
		if reason != "" {
			r.addDamage(ln, lineNo, reason)
			continue
		}
		r.ValidLen = ln.End()
	}
	r.Torn = len(r.Damage) > 0 && !validAfterDamage
	return r
}

func (r *Result) addDamage(ln Line, lineNo int, reason string) {
	raw := ln.Text
	if ln.Terminated {
		raw = append(append([]byte(nil), raw...), '\n')
	}
	r.Damage = append(r.Damage, Damage{Line: lineNo, Offset: ln.Off, Reason: reason, Raw: raw})
}

// ErrWedged marks an append handle whose failed append could not be rolled
// back: nothing more is written, since a record appended past unverified
// bytes would turn a salvageable torn tail into mid-log corruption.
var ErrWedged = errors.New("wal: log wedged by an append whose rollback failed")

// Appender is the append handle of one log file. Its committed length is
// always a whole number of records.
type Appender struct {
	fs   vfs.FS
	path string
	// f is the open handle; nil after a rollback until the next Append or
	// Sync reopens the file.
	f      vfs.File
	size   int64 // committed length
	wedged bool
}

// Create truncate-creates path holding init — the header and any records
// that must exist from byte zero — synced before it returns.
func Create(fsys vfs.FS, path string, init []byte) (*Appender, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(init); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: init %s: %w", path, err)
	}
	return &Appender{fs: fsys, path: path, f: f, size: int64(len(init))}, nil
}

// Open opens path for appending after its first size bytes, the verified
// prefix a scan returned. A failed append truncates the file back to that
// length or to the end of a later committed append.
func Open(fsys vfs.FS, path string, size int64) (*Appender, error) {
	a := &Appender{fs: fsys, path: path, size: size}
	if err := a.reopen(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Appender) reopen() error {
	f, err := a.fs.OpenAppend(a.path)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", a.path, err)
	}
	a.f = f
	return nil
}

// file returns the open handle, reopening the file after a rollback.
func (a *Appender) file() (vfs.File, error) {
	if a.wedged {
		return nil, ErrWedged
	}
	if a.f == nil {
		if err := a.reopen(); err != nil {
			return nil, err
		}
	}
	return a.f, nil
}

// Append writes p — whole records, newline-terminated — with one Write, and
// with sync set fsyncs it. A failed write or fsync is rolled back to the
// length before this append and reported; the handle reopens on the next
// call. If the rollback truncate fails, the handle wedges.
func (a *Appender) Append(p []byte, sync bool) error {
	f, err := a.file()
	if err != nil {
		return err
	}
	if _, err = f.Write(p); err != nil {
		err = fmt.Errorf("wal: write %s: %w", a.path, err)
	} else if sync {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("wal: sync %s: %w", a.path, err)
		}
	}
	if err != nil {
		return a.rollback(err)
	}
	a.size += int64(len(p))
	return nil
}

// rollback discards a failed append's possibly-persisted bytes: a torn
// write may have landed part of the record, and an fsync failure may leave
// all of it on disk, where the caller's retry would duplicate it.
func (a *Appender) rollback(err error) error {
	a.f.Close()
	a.f = nil
	if terr := a.fs.Truncate(a.path, a.size); terr != nil {
		a.wedged = true
		return fmt.Errorf("%w (rollback failed: %v; %w)", err, terr, ErrWedged)
	}
	return err
}

// Sync forces every committed record to stable storage. A failed Sync is
// reported, not rolled back: the records it covers were already committed.
func (a *Appender) Sync() error {
	f, err := a.file()
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", a.path, err)
	}
	return nil
}

// Close releases the handle without syncing.
func (a *Appender) Close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
