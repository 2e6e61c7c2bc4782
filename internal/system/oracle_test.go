package system

import (
	"strings"
	"testing"
)

func TestOracleCommitAndLatest(t *testing.T) {
	o := NewOracle(16, 10)
	if o.Latest(5) != 0 || o.Commits() != 0 {
		t.Fatal("fresh oracle not empty")
	}
	o.Commit(5, 10)
	o.Commit(5, 11)
	o.Commit(6, 12)
	if o.Latest(5) != 11 || o.Latest(6) != 12 || o.Commits() != 3 {
		t.Fatalf("latest/commits wrong: %d %d %d", o.Latest(5), o.Latest(6), o.Commits())
	}
}

func TestOracleDoubleCommitPanics(t *testing.T) {
	o := NewOracle(16, 10)
	o.Commit(1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	o.Commit(1, 7)
}

func TestOracleUncommittedLoadRejected(t *testing.T) {
	o := NewOracle(16, 10)
	err := o.CheckLoad(0, 1, 0, 99, false)
	if err == nil || !strings.Contains(err.Error(), "uncommitted") {
		t.Fatalf("err = %v", err)
	}
}

func TestOracleInitialVersionLegal(t *testing.T) {
	o := NewOracle(16, 10)
	if err := o.CheckLoad(0, 1, 0, 0, true); err != nil {
		t.Fatalf("reading the initial version flagged: %v", err)
	}
}

func TestOracleStrictStaleness(t *testing.T) {
	o := NewOracle(16, 10)
	o.Commit(1, 10) // proc 9 wrote v10
	// A load issued after the commit (issueLatest=10) observing v0 is a
	// strict violation but passes the plain coherence check for a proc
	// that never observed anything newer.
	if err := o.CheckLoad(0, 1, 10, 0, false); err != nil {
		t.Fatalf("coherence check flagged a legal (non-strict) stale read: %v", err)
	}
	o2 := NewOracle(16, 10)
	o2.Commit(1, 10)
	err := o2.CheckLoad(0, 1, 10, 0, true)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("strict check missed the stale read: %v", err)
	}
}

func TestOraclePerProcessorMonotonicity(t *testing.T) {
	o := NewOracle(16, 10)
	o.Commit(1, 10)
	o.Commit(1, 11)
	if err := o.CheckLoad(0, 1, 11, 11, false); err != nil {
		t.Fatal(err)
	}
	// Proc 0 has seen v11; going back to v10 is a coherence violation.
	err := o.CheckLoad(0, 1, 11, 10, false)
	if err == nil || !strings.Contains(err.Error(), "coherence violation") {
		t.Fatalf("monotonicity not enforced: %v", err)
	}
	// Proc 1 never saw v11, so v10 is legal for it (non-strict).
	if err := o.CheckLoad(1, 1, 11, 10, false); err != nil {
		t.Fatalf("independent processor wrongly coupled: %v", err)
	}
}

func TestOracleOwnWriteVisibility(t *testing.T) {
	o := NewOracle(16, 10)
	o.Commit(2, 5)
	if err := o.NoteWrite(3, 2, 5); err != nil {
		t.Fatal(err)
	}
	// Proc 3 must not subsequently observe anything older than its write.
	err := o.CheckLoad(3, 2, 5, 0, false)
	if err == nil {
		t.Fatal("read older than own write accepted")
	}
}

func TestOracleNoteWriteWithoutCommit(t *testing.T) {
	o := NewOracle(16, 10)
	if err := o.NoteWrite(0, 1, 42); err == nil {
		t.Fatal("uncommitted store completion accepted")
	}
}
