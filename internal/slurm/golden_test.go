package slurm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite the journal golden files with current output")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update. The goldens pin the on-disk bytes of the journal formats: any
// change to framing, header, manifest or record encoding shows up here.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden bytes:\n got %q\nwant %q", name, got, want)
	}
}

// TestJournalGoldenBytes drives a fixed operation sequence — submits, time
// advances, a job completion (audit record), a brownout record and one
// compaction — and pins the resulting journal.jsonl and snapshot.jsonl
// byte for byte.
func TestJournalGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenJournaled(testControllerConfig(), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("minife", 2, 3600, 600, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("gtc", 2, 3600, 2400, "b"); err != nil {
		t.Fatal(err)
	}
	c.Advance(300)
	c.noteBrownout(1, "shed_batch")
	c.Advance(600) // job a completes: an audit record follows the advance
	c.mu.Lock()
	err = c.jr.compact()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("milc", 1, 1800, 900, "c"); err != nil {
		t.Fatal(err)
	}
	c.Advance(100)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_snapshot.jsonl", readFileT(t, snapshotFile(dir)))
	checkGolden(t, "golden_journal.jsonl", readFileT(t, journalFile(dir)))

	// The pinned pair is itself a valid state directory.
	r, err := Fsck(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("golden pair does not verify:\n%s", r.Summary())
	}
}

// TestFsckGoldenReport damages a copy of the golden pair — one flipped
// payload byte mid-journal, then a torn final append — and pins what fsck
// prints about it and the quarantine.jsonl that -repair writes.
func TestFsckGoldenReport(t *testing.T) {
	dir := t.TempDir()
	snap := readFileT(t, filepath.Join("testdata", "golden_snapshot.jsonl"))
	tail := readFileT(t, filepath.Join("testdata", "golden_journal.jsonl"))
	// Line 2 is the first frame after the header; flip a byte inside its
	// payload so the CRC no longer matches while later frames still verify.
	second := bytes.IndexByte(tail, '\n') + 1
	tail[second+25] ^= 0x01
	tail = append(tail, "=0000002a 0badf00d {\"seq\""...)
	writeFile(t, snapshotFile(dir), snap)
	writeFile(t, journalFile(dir), tail)

	r, err := Fsck(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	summary := bytes.ReplaceAll([]byte(r.Summary()), []byte(dir), []byte("DIR"))
	checkGolden(t, "golden_fsck.txt", summary)

	if _, err := FsckRepair(vfs.OS{}, dir); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_quarantine.jsonl", readFileT(t, quarantineFile(dir)))
	r, err = Fsck(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("repaired directory does not verify:\n%s", r.Summary())
	}
}

// countingFS counts the Write and Sync calls, and the bytes written, that
// reach files opened through it.
type countingFS struct {
	vfs.FS
	writes, syncs, bytes *int
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

func (f countingFile) Write(p []byte) (int, error) {
	*f.c.writes++
	*f.c.bytes += len(p)
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	*f.c.syncs++
	return f.File.Sync()
}

// TestJournalCallsPerAppend pins the storage calls behind each journal
// append — one Write of exactly the frame and one Sync — plus the one
// Sync that Close adds.
func TestJournalCallsPerAppend(t *testing.T) {
	var writes, syncs, n int
	dir := t.TempDir()
	c, err := OpenJournaledFS(testControllerConfig(), countingFS{vfs.OS{}, &writes, &syncs, &n}, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := len(readFileT(t, journalFile(dir)))
	writes, syncs, n = 0, 0, 0
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("minife", 1, 3600, 1800, "x"); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(60)
	grown := len(readFileT(t, journalFile(dir))) - size
	if writes != 4 || syncs != 4 || n != grown {
		t.Fatalf("4 appends made %d writes, %d syncs, %d bytes; want 4, 4, %d", writes, syncs, n, grown)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if writes != 4 || syncs != 5 {
		t.Fatalf("close made %d writes and %d syncs, want 0 and 1", writes-4, syncs-4)
	}
}
