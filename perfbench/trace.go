package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"time"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/compile"
	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/dataslice"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/exec"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/progslice"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/symbolic"
)

// span is one timed call into a layer during a traced replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // id of the enclosing span, 0 for a root
	Answer int    `json:"answer"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id (index + 1).
func (t *tracer) begin(name string, parent, answer int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Answer: answer})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// selfTimes sums each span name's self time (its duration minus the
// part its child spans cover) in nanoseconds. It also returns the total
// duration of the root spans and their count.
func (t *tracer) selfTimes() (self map[string]float64, rootTotal float64, roots int) {
	self = map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		self[s.Name] += d
		if s.Parent == 0 {
			rootTotal += d
			roots++
		} else {
			self[t.spans[s.Parent-1].Name] -= d
		}
	}
	return self, rootTotal, roots
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetric is one per-layer metric of a traced run. A span metric
// is the mean self time per replayed answer of the span named after
// it; the others come from samples the workloads record.
type layerMetric struct {
	name, unit string
	agg        string // "span", "mean", "median" or "last"
	scale      float64
}

var layerTable = []layerMetric{
	{"service.request_ms", "ms", "median", 1},
	{"service.encode_ms", "ms", "span", 1e-6},
	{"service.response_kb", "KB", "mean", 1},
	{"history.align_us", "us", "span", 1e-3},
	{"storage.timetravel_ms", "ms", "span", 1e-6},
	{"storage.snapshot_hit_ratio", "ratio", "last", 1},
	{"dataslice.compute_ms", "ms", "span", 1e-6},
	{"symbolic.compress_ms", "ms", "span", 1e-6},
	{"progslice.slice_ms", "ms", "span", 1e-6},
	{"progslice.solver_tests", "count", "mean", 1},
	{"progslice.kept_ratio", "ratio", "last", 1},
	{"milp.nodes", "count", "mean", 1},
	{"compile.memo_hit_ratio", "ratio", "last", 1},
	{"reenact.build_ms", "ms", "span", 1e-6},
	{"exec.compile_ms", "ms", "span", 1e-6},
	{"exec.run_ms", "ms", "span", 1e-6},
	{"exec.rows_out", "count", "mean", 1},
	{"delta.compute_ms", "ms", "span", 1e-6},
	{"delta.rows", "count", "mean", 1},
	{"core.unattributed_ms", "ms", "mean", 1},
	{"core.query_hit_ratio", "ratio", "last", 1},
	{"core.template_compile_ms", "ms", "median", 1},
	{"core.template_kept_ratio", "ratio", "last", 1},
	{"persist.encode_us", "us", "mean", 1},
	{"persist.append_ms", "ms", "median", 1},
	{"history.apply_ms", "ms", "mean", 1},
	{"persist.wal_bytes_per_stmt", "B", "last", 1},
	{"persist.checkpoint_ms", "ms", "last", 1},
	{"persist.recovery_replayed", "count", "last", 1},
	{"trace.replay_ms", "ms", "span", 1e-6},
	{"trace.answer_p50_ms", "ms", "last", 1},
}

// layers collects the per-layer samples of a run.
type layers struct {
	tr      *tracer
	samples map[string][]float64
	rp      *replayer // the run's replayer, for the memo ratio
}

func newLayers() *layers {
	return &layers{tr: &tracer{t0: time.Now()}, samples: map[string][]float64{}}
}

func (l *layers) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// value records a metric whose latest reading is reported.
func (l *layers) value(name string, v float64) { l.samples[name] = []float64{v} }

func (l *layers) metrics() map[string]metric {
	self, rootTotal, answers := l.tr.selfTimes()
	self["trace.replay_ms"] = rootTotal
	if l.rp != nil {
		hits, misses := l.rp.memo.Stats()
		l.value("compile.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)))
		l.value("progslice.kept_ratio", ratio(float64(l.rp.kept), float64(l.rp.candidates)))
	}
	out := map[string]metric{}
	for _, m := range layerTable {
		var v float64
		switch m.agg {
		case "span":
			// The span is named after the metric without its unit suffix.
			key := m.name
			if key != "trace.replay_ms" {
				key = key[:strings.LastIndex(key, "_")]
			}
			v = self[key] / float64(max(answers, 1))
		case "mean":
			for _, x := range l.samples[m.name] {
				v += x
			}
			v /= float64(max(len(l.samples[m.name]), 1))
		case "median":
			v = median(l.samples[m.name])
		case "last":
			if s := l.samples[m.name]; len(s) > 0 {
				v = s[len(s)-1]
			}
		}
		out[m.name] = metric{Value: v * m.scale, Unit: m.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayer re-answers a what-if stage by stage through the public
// functions of each layer, in the engine's order, under spans. It uses
// the engine's default options (R+PS+DS) and carries one solver memo
// across answers, as a session does.
type replayer struct {
	l     *layers
	warm  bool // time-travel through a snapshot cache per database, as a session does
	snaps map[*storage.VersionedDatabase]*storage.SnapshotCache
	memo  *compile.Memo
	opts  core.Options

	answers          int
	kept, candidates int
}

func newReplayer(l *layers, warm bool) *replayer {
	rp := &replayer{l: l, warm: warm, snaps: map[*storage.VersionedDatabase]*storage.SnapshotCache{}, memo: compile.NewMemo(), opts: core.DefaultOptions()}
	rp.opts.Compile.Memo = rp.memo
	l.rp = rp
	return rp
}

// check replays one answer and records a failure when the replay's
// delta differs from the engine's answer for the same scenario.
func (rp *replayer) check(r *run, e *core.Engine, vdb *storage.VersionedDatabase, mods []history.Modification, engineAnswer delta.Set) error {
	got, err := rp.replay(r.ctx, e, vdb, mods)
	if err != nil {
		return err
	}
	if digestSet(got) != digestSet(engineAnswer) {
		r.fail(1, "traced replay of answer %d disagrees with the engine", rp.answers)
	}
	return nil
}

func (rp *replayer) replay(ctx context.Context, e *core.Engine, vdb *storage.VersionedDatabase, mods []history.Modification) (delta.Set, error) {
	tr := rp.l.tr
	rp.answers++
	id := rp.answers
	root := tr.begin("answer", 0, id)
	defer tr.end(root)

	sp := tr.begin("history.align", root, id)
	h, err := e.History()
	if err != nil {
		return nil, err
	}
	pair, err := history.ApplyModifications(h, mods)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("storage.timetravel", root, id)
	first := pair.FirstModified()
	ver := min(first, vdb.NumVersions())
	var db *storage.Database
	if rp.warm {
		if rp.snaps[vdb] == nil {
			rp.snaps[vdb] = storage.NewSnapshotCache(vdb)
		}
		db, err = rp.snaps[vdb].SnapshotCtx(ctx, ver)
	} else {
		db, err = vdb.VersionCtx(ctx, ver)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	suffix := pair.SuffixFrom(first)

	rels := suffix.Orig.Relations()
	for rel := range suffix.Mod.Relations() {
		rels[rel] = true
	}
	tainted := dataslice.TaintedRelations(suffix)

	sp = tr.begin("dataslice.compute", root, id)
	filters, err := dataslice.Compute(suffix, db, rp.opts.DataSlice)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	out := delta.Set{}
	var tests, nodes, rowsOut, deltaRows int
	for rel := range rels {
		if rp.opts.SkipUntainted && !tainted[rel] {
			continue
		}
		rs := tr.begin("relation", root, id)
		relPair, _ := suffix.RestrictToRelation(rel)
		noIns, modified := stripInsertPair(relPair)
		keep := make([]int, len(noIns.Orig))
		for i := range keep {
			keep[i] = i
		}
		if len(modified) == 0 {
			keep = nil
		} else {
			relation, err := db.Relation(rel)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("symbolic.compress", rs, id)
			phiD, err := symbolic.Compress(relation, rp.opts.Compress)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			in := &progslice.Input{Pair: noIns, Schema: relation.Schema, PhiD: phiD, Compile: rp.opts.Compile}
			sp = tr.begin("progslice.slice", rs, id)
			var res *progslice.Result
			if rp.opts.UseDependency {
				res, err = progslice.DependencyCtx(ctx, in)
			} else {
				res, err = progslice.GreedyCtx(ctx, in)
			}
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			keep = res.Keep
			tests += res.Stats.Tests
			nodes += res.Stats.SolverNodes
		}
		rp.kept += len(keep)
		rp.candidates += len(noIns.Orig)

		sp = tr.begin("reenact.build", rs, id)
		qo, qm, err := reenactQueries(suffix, noIns, keep, rel, db, filters)
		tr.end(sp)
		if err != nil {
			return nil, err
		}

		sp = tr.begin("exec.compile", rs, id)
		po, errO := exec.CompileVec(qo, db, rp.opts.Vec)
		pm, errM := exec.CompileVec(qm, db, rp.opts.Vec)
		tr.end(sp)
		sp = tr.begin("exec.run", rs, id)
		ro, err := runOrEval(ctx, po, errO, qo, db)
		if err != nil {
			return nil, err
		}
		rm, err := runOrEval(ctx, pm, errM, qm, db)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rowsOut += ro.Len() + rm.Len()

		sp = tr.begin("delta.compute", rs, id)
		out[rel] = delta.Compute(ro, rm)
		tr.end(sp)
		deltaRows += out[rel].Size()
		tr.end(rs)
	}

	sp = tr.begin("service.encode", root, id)
	body, err := json.Marshal(service.WhatIfResponse{Delta: out})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	l := rp.l
	l.sample("service.response_kb", float64(len(body))/1024)
	l.sample("progslice.solver_tests", float64(tests))
	l.sample("milp.nodes", float64(nodes))
	l.sample("exec.rows_out", float64(rowsOut))
	l.sample("delta.rows", float64(deltaRows))
	return out, nil
}

// reenactQueries builds the two reenactment queries of one relation
// the way the engine's §10 split does: the (sliced) insert-free part
// over the base relation, unioned with the insert branches.
func reenactQueries(suffix, noIns *history.PaddedPair, keep []int, rel string, db *storage.Database, filters *dataslice.Conditions) (algebra.Query, algebra.Query, error) {
	qo, err := reenact.QueryForRelation(noIns.Orig.Restrict(keep), rel, db, filters.H)
	if err != nil {
		return nil, nil, err
	}
	qm, err := reenact.QueryForRelation(noIns.Mod.Restrict(keep), rel, db, filters.M)
	if err != nil {
		return nil, nil, err
	}
	brO, err := reenact.InsertBranches(suffix.Orig, rel, db)
	if err != nil {
		return nil, nil, err
	}
	brM, err := reenact.InsertBranches(suffix.Mod, rel, db)
	if err != nil {
		return nil, nil, err
	}
	if brO != nil {
		qo = &algebra.Union{L: qo, R: brO}
	}
	if brM != nil {
		qm = &algebra.Union{L: qm, R: brM}
	}
	return qo, qm, nil
}

// runOrEval runs a compiled program, or falls back to the interpreter
// for a query outside the compilable subset, as the engine does.
func runOrEval(ctx context.Context, p *exec.Program, compileErr error, q algebra.Query, db *storage.Database) (*storage.Relation, error) {
	if compileErr != nil {
		return algebra.Eval(q, db)
	}
	return p.RunCtx(ctx, db)
}

// stripInsertPair removes aligned insert positions from a pair and
// returns the reduced pair with its modified positions (the §10 split).
func stripInsertPair(pair *history.PaddedPair) (*history.PaddedPair, []int) {
	modSet := map[int]bool{}
	for _, p := range pair.ModifiedPos {
		modSet[p] = true
	}
	out := &history.PaddedPair{}
	for i := range pair.Orig {
		if isInsert(pair.Orig[i]) || isInsert(pair.Mod[i]) {
			continue
		}
		out.Orig = append(out.Orig, pair.Orig[i])
		out.Mod = append(out.Mod, pair.Mod[i])
		if modSet[i] {
			out.ModifiedPos = append(out.ModifiedPos, len(out.Orig)-1)
		}
	}
	return out, out.ModifiedPos
}

func isInsert(s history.Statement) bool {
	switch s.(type) {
	case *history.InsertValues, *history.InsertQuery:
		return true
	}
	return false
}

// unattributed records the part of the engine's own total that none of
// its phases claims.
func unattributed(l *layers, st *core.Stats) {
	if st == nil {
		return
	}
	rest := st.Total - st.TimeTravel - st.ProgramSlicing - st.DataSlicing - st.Execute - st.Delta
	l.sample("core.unattributed_ms", ms(rest))
}
