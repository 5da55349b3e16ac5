package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// journalSpec is the campaign identity used across journal tests.
var journalSpec = []byte(`{"kind":"journal-test"}`)

func rowBytes(i int) []byte { return []byte(fmt.Sprintf("row-%d-payload", i)) }

// buildJournal creates a campaign journal with k appended cell records (in
// index order) and returns its raw bytes.
func buildJournal(t *testing.T, dir string, cells, k int) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "campaign.journal")
	j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Resumed || rec.Gen != 1 {
		t.Fatalf("fresh open: %+v, want gen 1 unresumed", rec)
	}
	for i := 0; i < k; i++ {
		if err := j.AppendCell(i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCampaignJournalTruncationProperty is the acceptance property: a
// campaign journal cut at EVERY byte offset must recover to a consistent
// DONE set — exactly the committed record prefix, never a lost middle
// record, never a duplicate, never a refusal. A cut before the first commit
// reinitializes as a fresh campaign (nothing was promised yet); any longer
// cut resumes with the generation bumped past the committed one.
func TestCampaignJournalTruncationProperty(t *testing.T) {
	const cells, k = 64, 20
	_, data := buildJournal(t, t.TempDir(), cells, k)

	dir := t.TempDir()
	prevRecovered := -1
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
		if err != nil {
			t.Fatalf("cut=%d: open refused: %v", cut, err)
		}
		// Committed prefix only: recovered rows must be exactly cells 0..m-1
		// in append order — a gap would mean a record was lost ahead of a
		// kept one, a duplicate would double-consume.
		m := len(rec.Rows)
		for i := 0; i < m; i++ {
			row, ok := rec.Rows[i]
			if !ok {
				t.Fatalf("cut=%d: recovered %d rows but cell %d missing (gap)", cut, m, i)
			}
			if !bytes.Equal(row, rowBytes(i)) {
				t.Fatalf("cut=%d: cell %d = %q, want %q", cut, i, row, rowBytes(i))
			}
		}
		// Monotone: cutting fewer bytes can never recover more records.
		if m < prevRecovered {
			t.Fatalf("cut=%d: recovered %d rows, previous cut recovered %d", cut, m, prevRecovered)
		}
		prevRecovered = m
		if rec.Resumed {
			if rec.Gen != 2 {
				t.Fatalf("cut=%d: resumed gen = %d, want 2", cut, rec.Gen)
			}
		} else {
			if rec.Gen != 1 || m != 0 {
				t.Fatalf("cut=%d: fresh reinit with gen=%d rows=%d", cut, rec.Gen, m)
			}
		}
		// The salvaged journal must be immediately usable: append one more
		// record and reopen — the write path proves the truncation left a
		// clean frame boundary.
		if err := j.AppendCell(cells-1, rowBytes(cells-1)); err != nil {
			t.Fatalf("cut=%d: append after salvage: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		_, rec2, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, cells)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if len(rec2.Rows) != m+1 {
			t.Fatalf("cut=%d: reopen recovered %d rows, want %d", cut, len(rec2.Rows), m+1)
		}
		if !bytes.Equal(rec2.Rows[cells-1], rowBytes(cells-1)) {
			t.Fatalf("cut=%d: appended record lost on reopen", cut)
		}
		os.Remove(path)
	}
}

// TestCampaignJournalTornTailSalvage: a partial frame at the tail — the
// artifact of a crash mid-append — is physically truncated away and the
// prefix survives.
func TestCampaignJournalTornTailSalvage(t *testing.T) {
	path, data := buildJournal(t, t.TempDir(), 16, 4)
	// Simulate a torn append: half a frame, no trailing newline.
	torn := appendCampaignFrame(nil, journalRecord{Kind: "cell", Cell: 9, Row: rowBytes(9)})
	torn = torn[:len(torn)/2]
	if err := os.WriteFile(path, append(append([]byte(nil), data...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Resumed || len(rec.Rows) != 4 || rec.SalvagedBytes != int64(len(torn)) {
		t.Fatalf("salvage: %+v (rows=%d), want 4 rows and %d salvaged bytes",
			rec, len(rec.Rows), len(torn))
	}
	if got, _ := os.ReadFile(path); int64(len(got)) <= int64(len(data)) {
		// gen bump appended after truncation: file = original + gen frame.
		t.Fatalf("journal not extended by gen bump: %d bytes", len(got))
	}
}

// TestCampaignJournalRefusesMidLogCorruption: damage with verifiable records
// after it is corruption, not a torn tail — resuming would silently lose a
// committed row, so the open must refuse.
func TestCampaignJournalRefusesMidLogCorruption(t *testing.T) {
	path, data := buildJournal(t, t.TempDir(), 16, 6)
	// Flip a payload byte in an early cell frame (past header+campaign+gen).
	lines := wal.SplitLines(data)
	target := lines[3] // first cell record
	corrupted := append([]byte(nil), data...)
	corrupted[target.Off+int64(len(target.Text))-2] ^= 0x40
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 16)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("open = %v, want ErrJournalCorrupt", err)
	}
}

// TestCampaignJournalRefusesMismatchedCampaign: a journal can only resume
// the campaign it belongs to — spec hash and cell count are identity.
func TestCampaignJournalRefusesMismatchedCampaign(t *testing.T) {
	path, _ := buildJournal(t, t.TempDir(), 16, 2)
	if _, _, err := OpenCampaignJournal(vfs.OS{}, path, []byte(`{"kind":"other"}`), 16); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("spec mismatch: %v, want ErrCampaignMismatch", err)
	}
	if _, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 17); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("cell-count mismatch: %v, want ErrCampaignMismatch", err)
	}
}

// TestCampaignJournalGenerationMonotone: each reopen bumps the journaled
// generation — the fencing token a restarted dispatcher carries.
func TestCampaignJournalGenerationMonotone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.journal")
	for want := int64(1); want <= 4; want++ {
		j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Gen != want || j.Generation() != want {
			t.Fatalf("open %d: gen = %d, want %d", want, rec.Gen, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignJournalFaultyAppend: a torn cell append through vfs.Faulty is
// exactly the mid-append crash the chaos test injects — the next open
// salvages the torn tail and keeps every whole record.
func TestCampaignJournalFaultyAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faulty.journal")
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 11})
	j, _, err := OpenCampaignJournal(faulty, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendCell(i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	faulty.TearWrites(1)
	if err := j.AppendCell(3, rowBytes(3)); !errors.Is(err, vfs.ErrTornWrite) {
		t.Fatalf("torn append error = %v, want ErrTornWrite", err)
	}
	j.Close()
	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 3 {
		t.Fatalf("recovered %d rows after torn append, want 3", len(rec.Rows))
	}
	if rec.Gen != 2 {
		t.Fatalf("gen = %d, want 2", rec.Gen)
	}
}

// TestContainmentSyncFailureRollsBack: a containment record whose fsync
// fails is rolled back like any failed append — counted as one journal
// error, the file left at a frame boundary — and a later cell record
// appends cleanly behind it, so the next open recovers that cell with no
// damage to salvage.
func TestContainmentSyncFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contain.journal")
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 3})
	d, _, _ := newTestDispatcher(t, 8, func(c *Config) {
		c.JournalPath, c.FS, c.Spec = path, faulty, journalSpec
	})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faulty.FailSyncs(1)
	d.mu.Lock()
	d.journalContainLocked(journalRecord{Kind: "quarantine", Worker: "w-evil", Reason: "checksum-reject", Strikes: 3})
	d.mu.Unlock()
	if got := d.Counters().JournalErrors; got != 1 {
		t.Fatalf("journal_errors = %d after a failed containment fsync, want 1", got)
	}
	if got := faulty.Stats().SyncFails; got != 1 {
		t.Fatalf("injected %d sync failures, want 1", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed containment append left %d bytes behind, want the file rolled back to its %d committed bytes",
			len(after)-len(before), len(before))
	}

	d.mu.Lock()
	d.journalCellLocked(0, rowBytes(0))
	d.mu.Unlock()
	if got := d.Counters().JournalErrors; got != 1 {
		t.Fatalf("journal_errors = %d after a clean cell append, want still 1", got)
	}
	d.Close()

	_, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
	if err != nil {
		t.Fatalf("reopen after rolled-back containment record: %v", err)
	}
	if !bytes.Equal(rec.Rows[0], rowBytes(0)) || len(rec.Rows) != 1 {
		t.Fatalf("reopen recovered rows %v, want only cell 0", rec.Rows)
	}
	if rec.SalvagedBytes != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("reopen found damage: salvaged %d bytes, quarantined %v", rec.SalvagedBytes, rec.Quarantined)
	}
}
