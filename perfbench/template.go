package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// templateSweep compiles the Taxi family once per shape (a cond-slot
// threshold $cut and a set-slot amount $v) and answers a seeded list
// of bindings through Template.EvalCtx.
type templateSweep struct {
	dir                    string
	rows, updates, perSlot int

	w        *workload.Workload
	d        *durable
	tpls     [2]*core.Template
	bindings []tplBinding
	order    []int
	log      answerLog

	hs  *httpServer // traced runs
	ids [2]string
	rp  *replayer
}

type tplBinding struct {
	shape int
	vals  map[string]types.Value
}

func newTemplateSweep(r *run, rep int) mix {
	t := &templateSweep{dir: filepath.Join(r.cfg.dir, fmt.Sprintf("template-%d", rep)), rows: 20000, updates: 50, perSlot: 16, log: answerLog{}}
	if r.cfg.tiny {
		t.rows, t.updates, t.perSlot = 400, 40, 3
	}
	return t
}

func (t *templateSweep) shapeMods() [2][]history.Modification {
	return [2][]history.Modification{condSlotMods(t.w), setSlotMods(t.w)}
}

func (t *templateSweep) setUp(r *run) error {
	ds := workload.Taxi(t.rows, dataSeed)
	w, err := workload.Generate(ds, workload.Config{Updates: t.updates, DependentPct: 25, Seed: dataSeed})
	if err != nil {
		return err
	}
	t.w = w
	if t.d, err = ingest(r, t.dir, ds.Database, w.History); err != nil {
		return err
	}
	var kept, total int
	for i, mods := range t.shapeMods() {
		t0 := time.Now()
		if t.tpls[i], err = t.d.engine.CompileTemplateCtx(r.ctx, mods, core.DefaultOptions()); err != nil {
			return err
		}
		r.layers.sample("core.template_compile_ms", ms(time.Since(t0)))
		st := t.tpls[i].Stats()
		kept += st.KeptStatements
		total += st.TotalStatements
	}
	r.layers.value("core.template_kept_ratio", ratio(float64(kept), float64(total)))

	// Bindings: one threshold drawn in each of perSlot equal strata of
	// the selection range, so every seed sweeps the whole range alike
	// (the .5 keeps them off the integer data), and half as many
	// amounts of a few units. Set-slot answers are several times
	// cheaper; keeping them a third of the mix keeps the median inside
	// the cond-slot latencies instead of in the gap between the two.
	rng := rand.New(rand.NewSource(r.cfg.seed))
	stratum := workload.SelRange / t.perSlot
	for k := 0; k < t.perSlot; k++ {
		cut := k*stratum + rng.Intn(stratum)
		t.bindings = append(t.bindings, tplBinding{0, map[string]types.Value{"cut": types.Float(float64(cut) + 0.5)}})
		if k%2 == 0 {
			t.bindings = append(t.bindings, tplBinding{1, map[string]types.Value{"v": types.Float(float64(rng.Intn(2000))/100 - 5)}})
		}
	}
	t.order = rng.Perm(len(t.bindings))
	for _, b := range t.bindings[:2] { // one binding of each shape
		if _, err := t.tpls[b.shape].EvalCtx(r.ctx, b.vals); err != nil {
			return err
		}
	}
	r.inputs["dataset"] = fmt.Sprintf("taxi rows=%d", t.rows)
	r.inputs["history"] = fmt.Sprintf("U=%d updates (D=25, T=10)", t.updates)
	r.inputs["bindings"] = fmt.Sprintf("%d cond-slot + %d set-slot", t.perSlot, (t.perSlot+1)/2)
	return nil
}

func (t *templateSweep) traceSetUp(r *run) error {
	var err error
	if t.hs, err = startServer(t.d.engine, t.d.store); err != nil {
		return err
	}
	for i, mods := range t.shapeMods() {
		body, err := json.Marshal(service.TemplateRequest{Modifications: wireMods(mods)})
		if err != nil {
			return err
		}
		resp, err := t.hs.post("/v1/template", body)
		if err != nil {
			return err
		}
		var tr service.TemplateResponse
		if err := json.Unmarshal(resp, &tr); err != nil {
			return err
		}
		t.ids[i] = tr.ID
	}
	t.rp = newReplayer(r.layers, false)
	return nil
}

func (t *templateSweep) round(r *run) error {
	for _, i := range t.order {
		b := t.bindings[i]
		t0 := time.Now()
		ans, err := t.tpls[b.shape].EvalCtx(r.ctx, b.vals)
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		r.answer(lat)
		r.untimed(func() error { t.log.add(i, digestSet(ans)); return nil })
		if r.cfg.trace {
			if err := t.traceAnswer(r, b, ans); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceAnswer charges the service with the eval round trip minus a
// direct eval, takes the engine's own phases from a fresh what-if of
// the substituted scenario, and replays that scenario stage by stage
// against the template's answer.
func (t *templateSweep) traceAnswer(r *run, b tplBinding, ans delta.Set) error {
	body, err := json.Marshal(service.TemplateEvalRequest{Binding: b.vals})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := t.hs.post("/v1/template/"+t.ids[b.shape]+"/eval", body); err != nil {
		return err
	}
	rtt := time.Since(t0)
	t0 = time.Now()
	if _, err := t.tpls[b.shape].EvalCtx(r.ctx, b.vals); err != nil {
		return err
	}
	r.layers.sample("service.request_ms", ms(rtt-time.Since(t0)))
	mods := t.tpls[b.shape].SubstitutedMods(b.vals)
	_, st, err := t.d.engine.WhatIfCtx(r.ctx, mods, core.DefaultOptions())
	if err != nil {
		return err
	}
	unattributed(r.layers, st)
	return t.rp.check(r, t.d.engine, t.d.store.Database(), mods, ans)
}

func (t *templateSweep) check(r *run) error {
	if r.cfg.trace {
		sessionRatios(r.layers, t.hs)
	}
	return parallel(len(t.bindings), func(i int) error {
		b := t.bindings[i]
		naive, _, err := t.d.engine.Naive(t.tpls[b.shape].SubstitutedMods(b.vals))
		if err != nil {
			return err
		}
		if wrong := t.log.verify(i, digestSet(naive)); wrong > 0 {
			r.fail(wrong, "binding %d (%v): %d answers differ from Naive (Alg. 1)", i, b.vals, wrong)
		}
		return nil
	})
}

func (t *templateSweep) stores() []*durable { return []*durable{t.d} }

func (t *templateSweep) close() error {
	err := t.hs.close()
	t.hs = nil
	if cerr := t.d.closeStore(); err == nil {
		err = cerr
	}
	return err
}
