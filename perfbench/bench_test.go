package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/types"
)

func tinyRun(t *testing.T, name string, trace bool) *run {
	t.Helper()
	return &run{
		cfg:    config{workload: name, seed: 7, seconds: 0.2, trace: trace, tiny: true, dir: t.TempDir()},
		ctx:    context.Background(),
		layers: newLayers(),
		inputs: map[string]any{},
	}
}

// coldAfterOneRound sets up a tiny cold-mixed workload and runs one
// round of it.
func coldAfterOneRound(t *testing.T) (*run, *coldMixed) {
	t.Helper()
	r := tinyRun(t, "cold-mixed", false)
	c := newColdMixed(r, 0).(*coldMixed)
	if err := c.setUp(r); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.close() })
	if err := c.round(r); err != nil {
		t.Fatal(err)
	}
	return r, c
}

// perturbations of one answer: a delta tuple dropped, and one altered.
func perturbations(t *testing.T, ans delta.Set) []delta.Set {
	t.Helper()
	var out []delta.Set
	for rel, d := range ans {
		if d.Empty() {
			continue
		}
		dropped := &delta.Result{Relation: d.Relation, Schema: d.Schema, Minus: d.Minus, Plus: d.Plus}
		altered := &delta.Result{Relation: d.Relation, Schema: d.Schema, Minus: d.Minus, Plus: d.Plus}
		if len(d.Plus) > 0 {
			dropped.Plus = d.Plus[1:]
			tup := append(schema.Tuple(nil), d.Plus[0]...)
			tup[0] = types.Int(-424242)
			altered.Plus = append([]schema.Tuple{tup}, d.Plus[1:]...)
		} else {
			dropped.Minus = d.Minus[1:]
			tup := append(schema.Tuple(nil), d.Minus[0]...)
			tup[0] = types.Int(-424242)
			altered.Minus = append([]schema.Tuple{tup}, d.Minus[1:]...)
		}
		for _, p := range []*delta.Result{dropped, altered} {
			s := delta.Set{}
			for k, v := range ans {
				s[k] = v
			}
			s[rel] = p
			out = append(out, s)
		}
		return out
	}
	t.Fatal("answer has an empty delta; pick a scenario that changes something")
	return nil
}

func TestPerturbedAnswerIsReported(t *testing.T) {
	r, c := coldAfterOneRound(t)
	if err := c.check(r); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 {
		t.Fatalf("unperturbed answers reported wrong: %v", r.problems)
	}
	probeFailures := r.failed // the fault probes' answers, counted by every check
	// Find a scenario with a non-empty answer and swap its logged answer
	// for a perturbed one.
	for i, sc := range c.scen {
		ans, _, err := c.ds[sc.store].engine.WhatIf(sc.mods, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Empty() {
			continue
		}
		for _, bad := range perturbations(t, ans) {
			c.log[i] = nil
			c.log.add(i, digestSet(bad))
			r.problems, r.failed = nil, 0
			if err := c.check(r); err != nil {
				t.Fatal(err)
			}
			if len(r.problems) == 0 || r.failed != probeFailures+1 {
				t.Fatalf("a perturbed answer for %s: %d failed, problems %v; want %d", sc.label, r.failed, r.problems, probeFailures+1)
			}
		}
		return
	}
	t.Fatal("no scenario with a non-empty answer")
}

func TestReopenLackingAcknowledgedStatementIsReported(t *testing.T) {
	r, c := coldAfterOneRound(t)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	d := c.ds[0]
	if err := d.recover(r); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 {
		t.Fatalf("faithful recovery reported wrong: %v", r.problems)
	}
	// The benchmark believes one more statement was acknowledged than
	// the store holds: the reopened store lacks it.
	st, err := sql.ParseStatement("UPDATE trips SET tips = tips + 1 WHERE trip_seconds >= 5000")
	if err != nil {
		t.Fatal(err)
	}
	d.acked = append(d.acked, st)
	d.twin = nil
	if err := d.recover(r); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) == 0 {
		t.Fatal("a reopened store lacking its last acknowledged statement passed the check")
	}
}

func TestReplayDisagreementIsReported(t *testing.T) {
	r, c := coldAfterOneRound(t)
	rp := newReplayer(r.layers, false)
	for _, sc := range c.scen {
		d := c.ds[sc.store]
		ans, _, err := d.engine.WhatIf(sc.mods, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ans.Empty() {
			continue
		}
		if err := rp.check(r, d.engine, d.store.Database(), sc.mods, ans); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) != 0 || r.failed != 0 {
			t.Fatalf("replay disagrees with the engine on %s (%d failed): %v", sc.label, r.failed, r.problems)
		}
		for _, bad := range perturbations(t, ans) {
			r.problems, r.failed = nil, 0
			if err := rp.check(r, d.engine, d.store.Database(), sc.mods, bad); err != nil {
				t.Fatal(err)
			}
			if len(r.problems) == 0 || r.failed != 1 {
				t.Fatalf("a replay disagreeing with the engine on %s: %d failed, problems %v; want 1 failed", sc.label, r.failed, r.problems)
			}
		}
		return
	}
	t.Fatal("no scenario with a non-empty answer")
}

// TestTinyRuns runs every workload at tiny size, untraced and traced,
// and checks that each prints exactly the metrics BENCHMARK.json names.
func TestTinyRuns(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(tinyRun(t, name, trace).cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.out.Correct {
				t.Errorf("%s trace=%v: %v", name, trace, res.info["problems"])
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			// Only the two fault probes may fail, in every round alike.
			if name == "cold-mixed" {
				rounds := res.info["window"].(map[string]any)["rounds"].(int)
				if res.out.Failed%rounds != 0 || res.out.Failed > 2*rounds {
					t.Errorf("cold-mixed trace=%v: %d of %d operations failed in %d rounds", trace, res.out.Failed, res.out.Attempted, rounds)
				}
			} else if res.out.Failed != 0 {
				t.Errorf("%s trace=%v: %d operations failed", name, trace, res.out.Failed)
			}
		}
	}
}
