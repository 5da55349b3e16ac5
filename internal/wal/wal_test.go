package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/vfs"
)

// mixedPayloads are records of varied shape: empty, short, JSON, with the
// format's own marker bytes inside, and long enough to span many buffer
// sizes.
func mixedPayloads() [][]byte {
	return [][]byte{
		[]byte(`{"seq":1,"op":"submit","app":"minife","nodes":2}`),
		{},
		[]byte("x"),
		[]byte(`{"kind":"cell","cell":7,"row":"cm93LTctcGF5bG9hZA=="}`),
		[]byte("= 00000000 00000000 !spaces and markers!"),
		[]byte(strings.Repeat("abcdefghij", 40)),
		[]byte(`{"seq":2,"op":"advance","seconds":300}`),
		[]byte("#not-a-header"),
	}
}

// mixedLog frames payloads into one headerless log and returns the end
// offset of every frame: ends[k] is the length of the first k frames.
func mixedLog(payloads [][]byte) (data []byte, ends []int64) {
	ends = []int64{0}
	for _, p := range payloads {
		data = AppendFrame(data, p)
		ends = append(ends, int64(len(data)))
	}
	return data, ends
}

// scanFrames scans a headerless log, taking every CRC-valid frame.
func scanFrames(data []byte) (Result, [][]byte) {
	var got [][]byte
	r := Scan(data, 0, func(ln Line) string {
		payload, reason := ParseFrame(ln.Text)
		if reason == "" {
			got = append(got, payload)
		}
		return reason
	}, nil)
	return r, got
}

func equalPayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for _, p := range mixedPayloads() {
		frame := AppendFrame([]byte("prefix"), p)[len("prefix"):]
		if frame[len(frame)-1] != '\n' {
			t.Fatalf("frame %q lacks its newline", frame)
		}
		got, reason := ParseFrame(frame[:len(frame)-1])
		if reason != "" || !bytes.Equal(got, p) {
			t.Fatalf("ParseFrame(AppendFrame(%q)) = %q, %q", p, got, reason)
		}
	}
	buf := []byte("#header\n")
	buf = AppendFrame(buf, []byte("a"))
	sealed := AppendManifest(append([]byte(nil), buf...), 1)
	frames, sum, ok := ParseManifest(sealed[len(buf) : len(sealed)-1])
	if !ok || frames != 1 || sum != Checksum(buf) {
		t.Fatalf("ParseManifest = %d, %08x, %v; want 1, %08x, true", frames, sum, ok, Checksum(buf))
	}
}

// TestScanTruncationEveryOffset cuts a mixed log at every byte offset: the
// scan must keep exactly the whole frames before the cut, report the
// partial line (if any) as its only damage, and call that damage torn —
// truncation alone never looks like mid-log corruption.
func TestScanTruncationEveryOffset(t *testing.T) {
	payloads := mixedPayloads()
	data, ends := mixedLog(payloads)
	k := 0
	for cut := 0; cut <= len(data); cut++ {
		for k+1 < len(ends) && ends[k+1] <= int64(cut) {
			k++
		}
		r, got := scanFrames(data[:cut])
		if r.ValidLen != ends[k] || !equalPayloads(got, payloads[:k]) {
			t.Fatalf("cut=%d: ValidLen %d with %d frames, want %d with %d", cut, r.ValidLen, len(got), ends[k], k)
		}
		if partial := int64(cut) != ends[k]; partial != (len(r.Damage) == 1) || (partial && !r.Torn) || len(r.Damage) > 1 {
			t.Fatalf("cut=%d: damage %+v torn=%v, want one torn damage iff the cut splits a frame", cut, r.Damage, r.Torn)
		}
	}
}

// TestScanBitFlips flips seeded single bits across a mixed log. The scan
// must keep exactly the frames before the damaged one, and whenever a
// whole frame follows the damage it must report corruption, not a torn
// tail.
func TestScanBitFlips(t *testing.T) {
	const seed = 1
	payloads := mixedPayloads()
	data, ends := mixedLog(payloads)
	rng := des.NewRNG(seed)
	for i := 0; i < 4000; i++ {
		pos, bit := rng.Intn(len(data)), rng.Intn(8)
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 1 << uint(bit)
		li := 0 // the frame holding pos
		for ends[li+1] <= int64(pos) {
			li++
		}
		r, got := scanFrames(flipped)
		if r.ValidLen != ends[li] || !equalPayloads(got, payloads[:li]) {
			t.Fatalf("seed %d flip %d (byte %d bit %d, frame %d): ValidLen %d with %d frames, want %d with %d",
				seed, i, pos, bit, li, r.ValidLen, len(got), ends[li], li)
		}
		if len(r.Damage) == 0 || r.Damage[0].Offset != ends[li] {
			t.Fatalf("seed %d flip %d (byte %d bit %d): damage %+v, want it to start at frame %d", seed, i, pos, bit, r.Damage, li)
		}
		// A flipped newline merges frame li with the next one, so a whole
		// frame follows the damage unless that merge swallowed the last.
		n := len(payloads)
		follows := li+1 < n && (int64(pos) != ends[li+1]-1 || li+2 < n)
		if follows && r.Torn {
			t.Fatalf("seed %d flip %d (byte %d bit %d): damage in frame %d of %d scanned as a torn tail",
				seed, i, pos, bit, li, len(payloads))
		}
	}
}

// FuzzScan holds the scan's contract on arbitrary input: no panic, a
// verified prefix that ends on a line boundary inside the data, damage
// only past it, and AppendFrame/ParseFrame round-tripping the input.
func FuzzScan(f *testing.F) {
	data, _ := mixedLog(mixedPayloads())
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("=00000001 00000000 x\n=zz\n"))
	f.Add([]byte("\n\n!00000000 00000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for skip := 0; skip <= 1; skip++ {
			r, _ := scanFrames(data)
			if skip == 1 {
				// Callers skip only a header they found terminated.
				if !bytes.Contains(data, []byte{'\n'}) {
					continue
				}
				r = Scan(data, 1, func(ln Line) string { _, reason := ParseFrame(ln.Text); return reason }, nil)
			}
			if r.ValidLen < 0 || r.ValidLen > int64(len(data)) {
				t.Fatalf("ValidLen %d outside [0, %d]", r.ValidLen, len(data))
			}
			if r.ValidLen > 0 && data[r.ValidLen-1] != '\n' {
				t.Fatalf("ValidLen %d not on a line boundary", r.ValidLen)
			}
			if r.Torn && len(r.Damage) == 0 {
				t.Fatal("torn without damage")
			}
			for i, d := range r.Damage {
				if d.Offset < r.ValidLen || (i > 0 && d.Offset <= r.Damage[i-1].Offset) {
					t.Fatalf("damage %d at offset %d inside the verified prefix or out of order: %+v", i, d.Offset, r.Damage)
				}
			}
		}
		frame := AppendFrame(nil, data)
		got, reason := ParseFrame(frame[:len(frame)-1])
		if reason != "" || !bytes.Equal(got, data) {
			t.Fatalf("round trip: %q, %q", got, reason)
		}
		if !bytes.Contains(data, []byte{'\n'}) {
			r, frames := scanFrames(frame)
			if len(r.Damage) != 0 || r.ValidLen != int64(len(frame)) || len(frames) != 1 {
				t.Fatalf("a single frame scans as %+v", r)
			}
		}
	})
}

// flakyFS fails Truncate while noTruncate is set and the next openFails
// OpenAppend calls.
type flakyFS struct {
	vfs.FS
	noTruncate bool
	openFails  int
}

func (f *flakyFS) Truncate(path string, size int64) error {
	if f.noTruncate {
		return errors.New("injected: truncate refused")
	}
	return f.FS.Truncate(path, size)
}

func (f *flakyFS) OpenAppend(path string) (vfs.File, error) {
	if f.openFails > 0 {
		f.openFails--
		return nil, errors.New("injected: open refused")
	}
	return f.FS.OpenAppend(path)
}

func newLog(t *testing.T, fsys vfs.FS) (*Appender, string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	init := []byte("#test-log\n")
	a, err := Create(fsys, path, init)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Append(AppendFrame(nil, []byte(fmt.Sprintf("record-%d", i))), i == 2); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return a, path, committed
}

func readT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppenderRollsBackFailedAppends: a torn write and a failed fsync each
// leave the file at its committed length, and the next append lands right
// after it.
func TestAppenderRollsBackFailedAppends(t *testing.T) {
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 5, SyncFailTransient: true})
	a, path, committed := newLog(t, faulty)
	defer a.Close()
	faulty.TearWrites(1)
	if err := a.Append(AppendFrame(nil, []byte("torn")), false); !errors.Is(err, vfs.ErrTornWrite) {
		t.Fatalf("torn append = %v, want ErrTornWrite", err)
	}
	if got := readT(t, path); !bytes.Equal(got, committed) {
		t.Fatalf("torn append left %q", got[len(committed):])
	}
	faulty.FailSyncs(1)
	if err := a.Append(AppendFrame(nil, []byte("unsynced")), true); !errors.Is(err, vfs.ErrSyncFailed) {
		t.Fatalf("append with failed fsync = %v, want ErrSyncFailed", err)
	}
	if got := readT(t, path); !bytes.Equal(got, committed) {
		t.Fatalf("append with failed fsync left %q", got[len(committed):])
	}
	next := AppendFrame(nil, []byte("next"))
	if err := a.Append(next, true); err != nil {
		t.Fatal(err)
	}
	if got, want := readT(t, path), append(committed, next...); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}

// TestAppenderWedgesWhenRollbackFails: if the rollback truncate fails the
// handle refuses every further write, and the torn bytes it could not
// remove scan as a salvageable torn tail.
func TestAppenderWedgesWhenRollbackFails(t *testing.T) {
	flaky := &flakyFS{FS: vfs.OS{}}
	faulty := vfs.NewFaulty(flaky, vfs.FaultProfile{Seed: 5})
	a, path, committed := newLog(t, faulty)
	defer a.Close()
	flaky.noTruncate = true
	faulty.TearWrites(1)
	err := a.Append(AppendFrame(nil, []byte("torn record with a long payload")), false)
	if !errors.Is(err, vfs.ErrTornWrite) || !errors.Is(err, ErrWedged) {
		t.Fatalf("append with failed rollback = %v, want ErrTornWrite and ErrWedged", err)
	}
	flaky.noTruncate = false
	if err := a.Append(AppendFrame(nil, []byte("after")), false); !errors.Is(err, ErrWedged) {
		t.Fatalf("append on wedged log = %v, want ErrWedged", err)
	}
	if err := a.Sync(); !errors.Is(err, ErrWedged) {
		t.Fatalf("sync on wedged log = %v, want ErrWedged", err)
	}
	data := readT(t, path)
	r := Scan(data, 1, func(ln Line) string { _, reason := ParseFrame(ln.Text); return reason }, nil)
	if r.ValidLen != int64(len(committed)) || (len(data) > len(committed) && !r.Torn) {
		t.Fatalf("wedged log scans as %+v, want a torn tail after %d committed bytes", r, len(committed))
	}
}

// TestAppenderRetriesReopen: a reopen that fails after a successful
// rollback is reported, not fatal — the next append tries again.
func TestAppenderRetriesReopen(t *testing.T) {
	flaky := &flakyFS{FS: vfs.OS{}}
	faulty := vfs.NewFaulty(flaky, vfs.FaultProfile{Seed: 5})
	a, path, committed := newLog(t, faulty)
	defer a.Close()
	faulty.TearWrites(1)
	if err := a.Append(AppendFrame(nil, []byte("torn")), false); !errors.Is(err, vfs.ErrTornWrite) || errors.Is(err, ErrWedged) {
		t.Fatalf("torn append = %v, want ErrTornWrite without a wedge", err)
	}
	flaky.openFails = 1
	next := AppendFrame(nil, []byte("next"))
	if err := a.Append(next, true); err == nil || errors.Is(err, ErrWedged) {
		t.Fatalf("append with failed reopen = %v, want a plain error", err)
	}
	if err := a.Append(next, true); err != nil {
		t.Fatalf("append after reopen recovered: %v", err)
	}
	if got, want := readT(t, path), append(committed, next...); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}
