package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// coldMixed answers distinct scenarios over Taxi and TPC-C histories
// with updates, inserts and deletes through Engine.WhatIfCtx with the
// default options and no session, so every answer pays every stage.
// Each round also asks the two fault probes.
type coldMixed struct {
	dir           string
	rows, updates int
	perDataset    int

	ws     []*workload.Workload
	ds     []*durable
	scen   []coldScenario
	order  []int
	log    answerLog
	probes []probe

	hs     []*httpServer   // traced runs: a server per store
	direct []*core.Session // traced runs: the direct call beside each request
	rp     *replayer
}

type coldScenario struct {
	store int
	label string
	mods  []history.Modification
}

func newColdMixed(r *run, rep int) mix {
	c := &coldMixed{dir: filepath.Join(r.cfg.dir, fmt.Sprintf("cold-%d", rep)), rows: 10000, updates: 50, perDataset: 8, log: answerLog{}}
	if r.cfg.tiny {
		c.rows, c.updates, c.perDataset = 300, 40, 2
	}
	return c
}

func (c *coldMixed) setUp(r *run) error {
	sets := []*workload.Dataset{workload.Taxi(c.rows, dataSeed), workload.TPCC(c.rows, dataSeed+1)}
	for i, ds := range sets {
		w, err := workload.Generate(ds, workload.Config{
			Updates: c.updates, DependentPct: 20, InsertPct: 10, DeletePct: 10, Seed: dataSeed + int64(i),
		})
		if err != nil {
			return err
		}
		d, err := ingest(r, filepath.Join(c.dir, ds.Name), ds.Database, w.History)
		if err != nil {
			return err
		}
		c.ws = append(c.ws, w)
		c.ds = append(c.ds, d)
		for _, sp := range w.ScenarioFamily(c.perDataset) {
			c.scen = append(c.scen, coldScenario{store: i, label: ds.Name + "/" + sp.Label, mods: sp.Mods})
		}
	}
	c.order = rand.New(rand.NewSource(r.cfg.seed)).Perm(len(c.scen))
	var err error
	if c.probes, err = faultProbes(); err != nil {
		return err
	}
	// Warm-up: one pass over the scenarios. Without a session nothing
	// is cached between answers; the pass only brings code and heap to
	// their steady state before the window opens.
	for _, sc := range c.scen {
		if _, _, err := c.ds[sc.store].engine.WhatIfCtx(r.ctx, sc.mods, core.DefaultOptions()); err != nil {
			return err
		}
	}
	r.inputs["datasets"] = fmt.Sprintf("taxi and tpcc, rows=%d each", c.rows)
	r.inputs["history"] = fmt.Sprintf("U=%d statements each (D=20, T=10, I=10, X=10)", c.updates)
	r.inputs["scenarios"] = len(c.scen)
	var names []string
	for _, p := range c.probes {
		names = append(names, p.name)
	}
	r.inputs["fault_probes"] = names
	return nil
}

func (c *coldMixed) traceSetUp(r *run) error {
	for _, d := range c.ds {
		hs, err := startServer(d.engine, d.store)
		if err != nil {
			return err
		}
		c.hs = append(c.hs, hs)
		c.direct = append(c.direct, d.engine.NewSession())
	}
	c.rp = newReplayer(r.layers, false)
	return compileFamilyTemplate(r, c.ds[0].engine, c.ws[0])
}

func (c *coldMixed) round(r *run) error {
	for _, i := range c.order {
		sc := c.scen[i]
		d := c.ds[sc.store]
		t0 := time.Now()
		ans, st, err := d.engine.WhatIfCtx(r.ctx, sc.mods, core.DefaultOptions())
		lat := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.label, err)
		}
		r.answer(lat)
		r.untimed(func() error { c.log.add(i, digestSet(ans)); return nil })
		if r.cfg.trace {
			unattributed(r.layers, st)
			if err := c.rp.check(r, d.engine, d.store.Database(), sc.mods, ans); err != nil {
				return err
			}
			if err := c.traceService(r, sc); err != nil {
				return err
			}
		}
	}
	return r.untimed(func() error {
		for i := range c.probes {
			c.probes[i].ask(r)
		}
		return nil
	})
}

// traceService measures what serving the scenario over HTTP adds: the
// round trip minus a direct call on a session that has seen the same
// requests.
func (c *coldMixed) traceService(r *run, sc coldScenario) error {
	body, err := wireBody(sc.mods)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := c.hs[sc.store].post("/v1/whatif", body); err != nil {
		return err
	}
	rtt := time.Since(t0)
	t0 = time.Now()
	if _, _, err := c.direct[sc.store].WhatIfCtx(r.ctx, sc.mods, core.DefaultOptions()); err != nil {
		return err
	}
	r.layers.sample("service.request_ms", ms(rtt-time.Since(t0)))
	return nil
}

func (c *coldMixed) check(r *run) error {
	if r.cfg.trace {
		sessionRatios(r.layers, c.hs[0])
	}
	if err := parallel(len(c.scen), func(i int) error {
		sc := c.scen[i]
		naive, _, err := c.ds[sc.store].engine.Naive(sc.mods)
		if err != nil {
			return err
		}
		if wrong := c.log.verify(i, digestSet(naive)); wrong > 0 {
			r.fail(wrong, "scenario %s: %d answers differ from Naive (Alg. 1)", sc.label, wrong)
		}
		return nil
	}); err != nil {
		return err
	}
	for i := range c.probes {
		if err := c.probes[i].check(r); err != nil {
			return err
		}
	}
	return nil
}

func (c *coldMixed) stores() []*durable { return c.ds }

func (c *coldMixed) close() error {
	var err error
	for _, hs := range c.hs {
		if cerr := hs.close(); err == nil {
			err = cerr
		}
	}
	c.hs = nil
	for _, d := range c.ds {
		if cerr := d.closeStore(); err == nil {
			err = cerr
		}
	}
	return err
}

// probe is a literal scenario on which program slicing is known to
// return a wrong delta: values outside the float64-exact integer range
// (probe a) and a float cell in an int column (probe b). Every answer
// counts as attempted, and as failed while it differs from Naive.
// Probes are asked outside the window's figures.
type probe struct {
	name    string
	engine  *core.Engine
	mods    []history.Modification
	answers answerLog
	errors  int
}

func faultProbes() ([]probe, error) {
	specs := []struct {
		name    string
		row     schema.Tuple
		history string
		replace string
	}{
		{
			name: "a-beyond-2^53",
			row:  schema.Tuple{types.Int(-9007199254740993), types.Int(9007199254740992), types.String("b")},
			history: `UPDATE r SET v = v + 3 WHERE k < 9007199254740993;
UPDATE r SET v = v + 2 WHERE k < 7 OR v < 12;
UPDATE r SET v = v + 1 WHERE k >= -9007199254740993 AND g = 'a';
UPDATE r SET v = v + 3 WHERE v < 33 AND g = 'b';`,
			replace: `DELETE FROM w WHERE k = 45 AND g = 'a'`,
		},
		{
			name: "b-float-in-int-column",
			row:  schema.Tuple{types.Float(43.5), types.Int(9007199254740993), types.String("c")},
			history: `DELETE FROM r WHERE k >= 13 AND g = 'c';
DELETE FROM r WHERE k < 46 OR v < 2;`,
			replace: `UPDATE w SET v = v + 4 WHERE k = 7`,
		},
	}
	var out []probe
	for _, sp := range specs {
		db := storage.NewDatabase()
		for _, name := range []string{"r", "w"} {
			rel := storage.NewRelation(schema.New(name,
				schema.Col("k", types.KindInt), schema.Col("v", types.KindInt), schema.Col("g", types.KindString)))
			if name == "r" {
				rel.Add(sp.row)
			}
			db.AddRelation(rel)
		}
		h, err := sql.ParseStatements(sp.history)
		if err != nil {
			return nil, err
		}
		vdb := storage.NewVersioned(db)
		for _, st := range h {
			if err := vdb.Apply(st); err != nil {
				return nil, err
			}
		}
		st, err := sql.ParseStatement(sp.replace)
		if err != nil {
			return nil, err
		}
		out = append(out, probe{
			name:    sp.name,
			engine:  core.New(vdb),
			mods:    []history.Modification{history.Replace{Pos: 0, Stmt: st}},
			answers: answerLog{},
		})
	}
	return out, nil
}

func (p *probe) ask(r *run) {
	r.attempted++
	ans, _, err := p.engine.WhatIfCtx(r.ctx, p.mods, core.DefaultOptions())
	if err != nil {
		p.errors++
		return
	}
	p.answers.add(0, digestSet(ans))
}

// check counts every probe answer that erred or differs from Naive as
// failed.
func (p *probe) check(r *run) error {
	naive, _, err := p.engine.Naive(p.mods)
	if err != nil {
		return err
	}
	r.failed += p.errors + p.answers.verify(0, digestSet(naive))
	return nil
}
