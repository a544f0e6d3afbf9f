package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/workload"
)

// serveWarm is an analyst iterating thresholds against mahifd: one
// keep-alive client posts the 32-scenario family to /v1/whatif in a
// seeded order, after a warm-up pass has filled the session's caches.
type serveWarm struct {
	dir                   string
	rows, updates, family int

	w      *workload.Workload
	d      *durable
	hs     *httpServer
	specs  []workload.ScenarioSpec
	bodies [][]byte
	order  []int
	log    answerLog

	direct *core.Session // traced runs: the direct call beside each request
	rp     *replayer
}

func newServeWarm(r *run, rep int) mix {
	s := &serveWarm{dir: filepath.Join(r.cfg.dir, fmt.Sprintf("serve-%d", rep)), rows: 20000, updates: 50, family: 32, log: answerLog{}}
	if r.cfg.tiny {
		s.rows, s.updates, s.family = 400, 40, 8
	}
	return s
}

func (s *serveWarm) setUp(r *run) error {
	ds := workload.Taxi(s.rows, dataSeed)
	w, err := workload.Generate(ds, workload.Config{Updates: s.updates, Seed: dataSeed})
	if err != nil {
		return err
	}
	s.w = w
	if s.d, err = ingest(r, s.dir, ds.Database, w.History); err != nil {
		return err
	}
	if s.hs, err = startServer(s.d.engine, s.d.store); err != nil {
		return err
	}
	s.specs = w.ScenarioFamily(s.family)
	s.bodies = make([][]byte, len(s.specs))
	for i, sp := range s.specs {
		if s.bodies[i], err = wireBody(sp.Mods); err != nil {
			return err
		}
	}
	s.order = rand.New(rand.NewSource(r.cfg.seed)).Perm(len(s.specs))
	for _, b := range s.bodies {
		if _, err := s.hs.post("/v1/whatif", b); err != nil {
			return err
		}
	}
	r.inputs["dataset"] = fmt.Sprintf("taxi rows=%d", s.rows)
	r.inputs["history"] = fmt.Sprintf("U=%d updates (D=0, T=10)", s.updates)
	r.inputs["scenarios"] = len(s.specs)
	return nil
}

func (s *serveWarm) traceSetUp(r *run) error {
	s.direct = s.d.engine.NewSession()
	for _, sp := range s.specs {
		if _, _, err := s.direct.WhatIfCtx(r.ctx, sp.Mods, core.DefaultOptions()); err != nil {
			return err
		}
	}
	s.rp = newReplayer(r.layers, true)
	return compileFamilyTemplate(r, s.d.engine, s.w)
}

func (s *serveWarm) round(r *run) error {
	for _, i := range s.order {
		t0 := time.Now()
		body, err := s.hs.post("/v1/whatif", s.bodies[i])
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		r.answer(lat)
		r.untimed(func() error { s.log.add(i, digestBytes(body)); return nil })
		if r.cfg.trace {
			if err := traceDirect(r, s.rp, s.direct, s.d, s.specs[i].Mods, lat); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceDirect answers the same scenario through a session directly,
// charges the difference to the service, and replays the answer stage
// by stage against the direct call's delta.
func traceDirect(r *run, rp *replayer, sess *core.Session, d *durable, mods []history.Modification, httpLat time.Duration) error {
	t0 := time.Now()
	ans, st, err := sess.WhatIfCtx(r.ctx, mods, core.DefaultOptions())
	direct := time.Since(t0)
	if err != nil {
		return err
	}
	r.layers.sample("service.request_ms", ms(httpLat-direct))
	unattributed(r.layers, st)
	return rp.check(r, d.engine, d.store.Database(), mods, ans)
}

func (s *serveWarm) check(r *run) error {
	if r.cfg.trace {
		sessionRatios(r.layers, s.hs)
	}
	naive := make([]digest, len(s.specs))
	if err := parallel(len(s.specs), func(i int) error {
		d, _, err := s.d.engine.Naive(s.specs[i].Mods)
		naive[i] = digestSet(d)
		return err
	}); err != nil {
		return err
	}
	for i, sp := range s.specs {
		body, err := s.hs.post("/v1/whatif", s.bodies[i])
		if err != nil {
			return err
		}
		got, err := decodeWhatIf(body)
		if err != nil {
			return err
		}
		// A window answer is right when its bytes equal the check
		// answer's and the check answer equals Naive's.
		wrong := s.log.verify(i, digestBytes(body))
		if digestSet(got) != naive[i] {
			wrong = s.log.count(i)
		}
		if wrong > 0 {
			r.fail(wrong, "scenario %s: %d answers differ from Naive (Alg. 1)", sp.Label, wrong)
		}
	}
	return nil
}

func (s *serveWarm) stores() []*durable { return []*durable{s.d} }

func (s *serveWarm) close() error {
	err := s.hs.close()
	s.hs = nil
	if cerr := s.d.closeStore(); err == nil {
		err = cerr
	}
	return err
}

// condSlotMods is the workload's modified update with its threshold
// left open as $cut: the scenario family compiled as one template.
func condSlotMods(w *workload.Workload) []history.Modification {
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
		Rel:   upd.Rel,
		Set:   upd.Set,
		Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.Parameter("cut")),
	}}}
}

// setSlotMods keeps the modified update's condition and leaves the
// amount it adds to the first payload column open as $v.
func setSlotMods(w *workload.Workload) []history.Modification {
	base := w.Mods[0].(history.Replace)
	upd := base.Stmt.(*history.Update)
	payload := w.Dataset.Payload[0]
	return []history.Modification{history.Replace{Pos: base.Pos, Stmt: &history.Update{
		Rel:   upd.Rel,
		Set:   []history.SetClause{{Col: payload, E: expr.Add(expr.Column(payload), expr.Parameter("v"))}},
		Where: upd.Where,
	}}}
}

// compileFamilyTemplate times compiling the workload's scenario family
// as one cond-slot template, the compile-once alternative to answering
// it scenario by scenario (traced runs of the what-if workloads).
func compileFamilyTemplate(r *run, e *core.Engine, w *workload.Workload) error {
	t0 := time.Now()
	tpl, err := e.CompileTemplateCtx(r.ctx, condSlotMods(w), core.DefaultOptions())
	if err != nil {
		return err
	}
	r.layers.sample("core.template_compile_ms", ms(time.Since(t0)))
	st := tpl.Stats()
	r.layers.value("core.template_kept_ratio", ratio(float64(st.KeptStatements), float64(st.TotalStatements)))
	return nil
}
