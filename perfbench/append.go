package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/workload"
)

// appendMix is the one workload that writes: one client alternates a
// durable POST /v1/history of one generated statement with a
// POST /v1/whatif on the advancing history. The store checkpoints on
// its fixed cadence, and its WAL fsyncs on every append.
//
// A round is a fixed number of pairs from the same starting history,
// so every answer is asked at the same version in every round, however
// many rounds the window runs. Each round starts, outside the window's
// figures, from a fresh store, server and session over the starting
// history; the one set-up built is warmed up and then discarded.
type appendMix struct {
	dir                  string
	rows, initial, pairs int

	base   func() *storage.Database
	start  []history.Statement // the history at the start of every round
	stream []history.Statement // the statements one round appends
	d      *durable
	hs     *httpServer
	specs  []workload.ScenarioSpec
	bodies [][]byte
	order  []int
	log    answerLog // keyed by the pair's index in its round

	direct *core.Session // traced runs
	rp     *replayer
	w      *workload.Workload
}

func newAppendMix(r *run, rep int) mix {
	a := &appendMix{dir: filepath.Join(r.cfg.dir, fmt.Sprintf("append-%d", rep)), rows: 3000, initial: 50, pairs: checkpointEvery, log: answerLog{}}
	if r.cfg.tiny {
		a.rows, a.initial, a.pairs = 300, 40, 8
	}
	return a
}

func (a *appendMix) setUp(r *run) error {
	ds := workload.Taxi(a.rows, dataSeed)
	full, err := workload.Generate(ds, workload.Config{
		Updates: a.initial + a.pairs, DependentPct: 20, InsertPct: 10, DeletePct: 10, Seed: dataSeed,
	})
	if err != nil {
		return err
	}
	// The first statements are the history at start; the rest is what
	// a round appends. The scenario family only touches the starting
	// history.
	a.base, a.start, a.stream = ds.Database, full.History[:a.initial], full.History[a.initial:]
	w := &workload.Workload{Dataset: ds, History: a.start, Mods: full.Mods}
	for _, p := range full.DependentPos {
		if p < a.initial {
			w.DependentPos = append(w.DependentPos, p)
		}
	}
	a.w = w
	a.specs = w.ScenarioFamily(16)
	a.bodies = make([][]byte, len(a.specs))
	for i, sp := range a.specs {
		if a.bodies[i], err = wireBody(sp.Mods); err != nil {
			return err
		}
	}
	a.order = rand.New(rand.NewSource(r.cfg.seed)).Perm(len(a.specs))
	if err := a.open(r); err != nil {
		return err
	}
	for _, b := range a.bodies {
		if _, err := a.hs.post("/v1/whatif", b); err != nil {
			return err
		}
	}
	r.inputs["dataset"] = fmt.Sprintf("taxi rows=%d", a.rows)
	r.inputs["history"] = fmt.Sprintf("U=%d statements at start, then %d appended per round (D=20, T=10, I=10, X=10)", a.initial, a.pairs)
	r.inputs["scenarios"] = len(a.specs)
	r.inputs["checkpoint_every"] = checkpointEvery
	return nil
}

// open creates the store over the starting history and serves it.
func (a *appendMix) open(r *run) error {
	var err error
	if a.d, err = ingest(r, a.dir, a.base, a.start); err != nil {
		return err
	}
	if a.hs, err = startServer(a.d.engine, a.d.store); err != nil {
		return err
	}
	// Traced runs: the direct call beside each request goes through a
	// session that has seen the same requests.
	a.direct = a.d.engine.NewSession()
	return nil
}

// restart replaces the store, server and session by fresh ones over
// the starting history, and frees the old ones' memory.
func (a *appendMix) restart(r *run) error {
	if err := a.close(); err != nil {
		return err
	}
	if err := os.RemoveAll(a.dir); err != nil {
		return err
	}
	a.d, a.hs, a.direct = nil, nil, nil
	debug.FreeOSMemory()
	if err := a.open(r); err != nil {
		return err
	}
	debug.FreeOSMemory()
	return nil
}

func (a *appendMix) traceSetUp(r *run) error {
	a.rp = newReplayer(r.layers, true)
	return compileFamilyTemplate(r, a.d.engine, a.w)
}

func (a *appendMix) round(r *run) error {
	if err := r.untimed(func() error { return a.restart(r) }); err != nil {
		return err
	}
	for k, st := range a.stream {
		body, err := json.Marshal(service.AppendRequest{Statements: []string{st.String()}})
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := a.hs.post("/v1/history", body)
		lat := time.Since(t0)
		if err != nil {
			return err
		}
		r.appends = append(r.appends, ms(lat))
		r.liveAppends++
		r.attempted++
		r.windowOps++
		var ack service.AppendResponse
		if err := json.Unmarshal(resp, &ack); err != nil {
			return err
		}
		a.d.acked = append(a.d.acked, st)
		if ack.Version != len(a.d.acked) || !ack.Durable {
			r.fail(1, "append acknowledged version %d (durable %v), expected %d", ack.Version, ack.Durable, len(a.d.acked))
		}

		i := a.spec(k)
		t0 = time.Now()
		resp, err = a.hs.post("/v1/whatif", a.bodies[i])
		lat = time.Since(t0)
		if err != nil {
			return err
		}
		r.answer(lat)
		if err := r.untimed(func() error {
			got, err := decodeWhatIf(resp)
			a.log.add(k, digestSet(got))
			return err
		}); err != nil {
			return err
		}
		if r.cfg.trace {
			if err := traceDirect(r, a.rp, a.direct, a.d, a.specs[i].Mods, lat); err != nil {
				return err
			}
		}
	}
	return nil
}

// spec returns the scenario the k-th pair of a round asks: the seeded
// order, then the same order backwards, so that whatever the seed,
// the versions each scenario is asked at add up to the same total.
func (a *appendMix) spec(k int) int {
	n := len(a.order)
	if k %= 2 * n; k >= n {
		k = 2*n - 1 - k
	}
	return a.order[k]
}

// check replays the acknowledged history in memory and, at each
// version a what-if was answered at, compares the answers with Naive
// (Alg. 1) on an engine frozen at that version.
func (a *appendMix) check(r *run) error {
	if r.cfg.trace {
		sessionRatios(r.layers, a.hs)
	}
	return a.d.buildTwin(r, func(v int, twin *storage.VersionedDatabase) error {
		k := v - a.initial - 1
		if k < 0 {
			return nil
		}
		tip, err := twin.VersionCtx(r.ctx, v)
		if err != nil {
			return err
		}
		e := core.New(storage.RestoreVersioned(twin.Base(), twin.Log(), nil, tip))
		sp := a.specs[a.spec(k)]
		naive, _, err := e.Naive(sp.Mods)
		if err != nil {
			return err
		}
		if wrong := a.log.verify(k, digestSet(naive)); wrong > 0 {
			r.fail(wrong, "what-if %s at version %d: %d answers differ from Naive (Alg. 1)", sp.Label, v, wrong)
		}
		return nil
	})
}

func (a *appendMix) stores() []*durable { return []*durable{a.d} }

func (a *appendMix) close() error {
	err := a.hs.close()
	a.hs = nil
	if cerr := a.d.closeStore(); err == nil {
		err = cerr
	}
	return err
}
