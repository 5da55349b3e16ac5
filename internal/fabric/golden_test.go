package fabric

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite the campaign journal golden file with current output")

// TestCampaignJournalGoldenBytes pins the campaign journal's on-disk bytes
// for a fixed campaign: a fresh open, cell records, a poison, a quarantine
// and its release, then a reopen that bumps the generation and one more
// cell.
func TestCampaignJournalGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, _, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendCell(i, rowBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []journalRecord{
		{Kind: "poison", Cell: 5, Err: "boom on 2 workers"},
		{Kind: "quarantine", Worker: "w-evil", Reason: "checksum-reject", Strikes: 3},
		{Kind: "unquarantine", Worker: "w-evil"},
	} {
		if err := j.appendRecord(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := OpenCampaignJournal(vfs.OS{}, path, journalSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 2 || len(rec.Rows) != 3 || len(rec.Poisoned) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("reopen recovered %+v", rec)
	}
	if err := j.AppendCell(3, rowBytes(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_campaign.journal")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("campaign journal differs from the golden bytes:\n got %q\nwant %q", got, want)
	}
}

// countingFS counts the Write and Sync calls that reach files opened
// through it.
type countingFS struct {
	vfs.FS
	writes, syncs *int
}

func (c countingFS) Create(path string) (vfs.File, error) { return c.wrap(c.FS.Create(path)) }

func (c countingFS) OpenAppend(path string) (vfs.File, error) { return c.wrap(c.FS.OpenAppend(path)) }

func (c countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

type countingFile struct {
	vfs.File
	c countingFS
}

func (f countingFile) Write(p []byte) (int, error) { *f.c.writes++; return f.File.Write(p) }

func (f countingFile) Sync() error { *f.c.syncs++; return f.File.Sync() }

// TestCampaignJournalCallsPerAppend pins the storage calls of the campaign
// journal: one synced Write at a fresh open and at a resume, one unsynced
// Write per cell, one synced Write per containment record, one Sync per
// checkpoint.
func TestCampaignJournalCallsPerAppend(t *testing.T) {
	var writes, syncs int
	fsys := countingFS{vfs.OS{}, &writes, &syncs}
	path := filepath.Join(t.TempDir(), "campaign.journal")
	step := func(what string, wantWrites, wantSyncs int, fn func() error) {
		t.Helper()
		writes, syncs = 0, 0
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if writes != wantWrites || syncs != wantSyncs {
			t.Fatalf("%s: %d writes, %d syncs; want %d, %d", what, writes, syncs, wantWrites, wantSyncs)
		}
	}
	var j *CampaignJournal
	open := func() (err error) { j, _, err = OpenCampaignJournal(fsys, path, journalSpec, 8); return err }
	step("fresh open", 1, 1, open)
	step("cell", 1, 0, func() error { return j.AppendCell(0, rowBytes(0)) })
	step("containment", 1, 1, func() error { return j.appendRecord(journalRecord{Kind: "poison", Cell: 1, Err: "x"}, true) })
	step("checkpoint", 0, 1, j.Checkpoint)
	step("close", 0, 0, j.Close)
	step("resume", 1, 1, open)
	step("close", 0, 0, j.Close)
}
