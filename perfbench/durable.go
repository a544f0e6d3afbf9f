package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/storage"
)

// checkpointEvery is the fixed checkpoint cadence of every store the
// benchmark creates, in statements.
const checkpointEvery = 32

// durable is one WAL-backed store plus what the benchmark knows it
// acknowledged: every workload keeps its history in a store, as mahifd
// does with -data, so every run measures durable appends and recovery.
type durable struct {
	dir    string
	base   func() *storage.Database // a fresh copy of the state before statement 1
	store  *persist.Store
	engine *core.Engine
	acked  []history.Statement
	stats  persist.Stats // taken at close

	twin *storage.VersionedDatabase // in-memory replay of acked, built by buildTwin
}

// ingest creates a store over base and appends stmts one statement per
// fsynced append, recording each append's latency.
func ingest(r *run, dir string, base func() *storage.Database, stmts []history.Statement) (*durable, error) {
	store, err := persist.Create(dir, base(), persist.Options{CheckpointEvery: checkpointEvery})
	if err != nil {
		return nil, err
	}
	d := &durable{dir: dir, base: base, store: store, engine: core.NewDurable(store)}
	// Collect the garbage of data generation first, so that appends
	// are not timed against a collection it left behind.
	runtime.GC()
	for _, st := range stmts {
		t0 := time.Now()
		if _, err := persist.EncodeStatement(st); err != nil {
			return nil, err
		}
		r.layers.sample("persist.encode_us", float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if _, err := d.engine.AppendCtx(r.ctx, []history.Statement{st}); err != nil {
			return nil, err
		}
		lat := time.Since(t0)
		r.appends = append(r.appends, ms(lat))
		d.acked = append(d.acked, st)
	}
	return d, nil
}

// closeStore closes the store, keeping its traffic counters.
func (d *durable) closeStore() error {
	if d.store == nil {
		return nil
	}
	d.stats = d.store.Stats()
	err := d.store.Close()
	d.store = nil
	return err
}

// buildTwin replays the acknowledged statements over a fresh copy of
// the base in memory, one Apply per statement, calling at(v) after
// each version v (and at 0). It is the oracle for recovery and the
// frame for naive answers at past versions.
func (d *durable) buildTwin(r *run, at func(v int, twin *storage.VersionedDatabase) error) error {
	d.twin = storage.NewVersioned(d.base())
	if at != nil {
		if err := at(0, d.twin); err != nil {
			return err
		}
	}
	for i, st := range d.acked {
		t0 := time.Now()
		if err := d.twin.Apply(st); err != nil {
			return fmt.Errorf("twin apply %d: %w", i+1, err)
		}
		r.layers.sample("history.apply_ms", ms(time.Since(t0)))
		if at != nil {
			if err := at(i+1, d.twin); err != nil {
				return err
			}
		}
	}
	return nil
}

// recover reopens the closed store reopens times, timing each open and
// checking each recovered state against the acknowledged history.
func (d *durable) recover(r *run) error {
	if d.twin == nil {
		if err := d.buildTwin(r, nil); err != nil {
			return err
		}
	}
	r.layers.value("persist.wal_bytes_per_stmt", float64(d.stats.WALBytesWritten)/float64(max(d.stats.StatementsAppended, 1)))
	r.layers.value("persist.checkpoint_ms", ms(d.stats.LastCheckpointDuration))
	for i := 0; i < reopens; i++ {
		debug.FreeOSMemory() // each reopen starts from the same heap
		t0 := time.Now()
		s, err := persist.Open(d.dir, persist.Options{CheckpointEvery: checkpointEvery})
		dur := time.Since(t0)
		if err != nil {
			return err
		}
		r.recovers = append(r.recovers, dur.Seconds())
		r.layers.value("persist.recovery_replayed", float64(s.RecoveryInfo().ReplayedStatements))
		if err := verifyRecovered(s.Database(), d.acked, d.twin.Current()); err != nil {
			// Reopens are not counted in attempted, so a wrong one is
			// not counted in failed either: their number is fixed per
			// run while attempted grows with the window's rounds.
			r.fail(0, "reopen %d of %s: %v", i+1, filepath.Base(d.dir), err)
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	return nil
}

// verifyRecovered checks a reopened store against the acknowledged
// history: the same version, the same statements in order, and tip
// relations equal (as bags) to the in-memory replay.
func verifyRecovered(vdb *storage.VersionedDatabase, acked []history.Statement, twinTip *storage.Database) error {
	if n := vdb.NumVersions(); n != len(acked) {
		return fmt.Errorf("recovered version %d, acknowledged %d", n, len(acked))
	}
	for i, m := range vdb.Log() {
		if got, want := m.String(), acked[i].String(); got != want {
			return fmt.Errorf("statement %d recovered as %q, acknowledged %q", i+1, got, want)
		}
	}
	tip := vdb.Current()
	names, want := tip.RelationNames(), twinTip.RelationNames()
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		return fmt.Errorf("recovered relations %v, replay has %v", names, want)
	}
	for _, name := range want {
		got, _ := tip.Relation(name)
		exp, _ := twinTip.Relation(name)
		if !got.EqualAsBag(exp) {
			return fmt.Errorf("relation %s differs from the in-memory replay", name)
		}
	}
	return nil
}

// hostInfo records what a number needs to be reproduced: CPUs,
// GOMAXPROCS, Go version and the source it was built from.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(),
		"source":     sourceDigest(),
	}
}

// gitCommit reads the checked-out commit from .git without running
// git ("none" outside a git working tree).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", rest))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so runs of identical code carry the same digest whether
// or not the tree is a git checkout.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if de.IsDir() && p != "." && strings.HasPrefix(de.Name(), ".") {
			return filepath.SkipDir
		}
		if !de.IsDir() && (strings.HasSuffix(p, ".go") || de.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
