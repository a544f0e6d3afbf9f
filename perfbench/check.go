package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/types"
)

// digest identifies an answer for comparison.
type digest [32]byte

// digestSet hashes a delta set canonically: relations in name order,
// each side's tuples in the order delta.Compute sorts them. A missing
// relation and an empty delta hash alike.
func digestSet(s delta.Set) digest {
	names := make([]string, 0, len(s))
	for rel, d := range s {
		if d != nil && !d.Empty() {
			names = append(names, rel)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	var buf []byte
	for _, rel := range names {
		d := s[rel]
		buf = fmt.Appendf(buf[:0], "%s %d %d\n", rel, len(d.Minus), len(d.Plus))
		for _, side := range [2][]schema.Tuple{d.Minus, d.Plus} {
			for _, t := range side {
				buf = appendTuple(buf, t)
				if len(buf) >= 1<<16 {
					h.Write(buf)
					buf = buf[:0]
				}
			}
		}
		h.Write(buf)
	}
	var out digest
	h.Sum(out[:0])
	return out
}

// appendTuple encodes a tuple with the equality schema.Tuple.Key has:
// numbers by their float64 value, so an int and a float that compare
// equal encode alike. It allocates nothing beyond b's growth.
func appendTuple(b []byte, t schema.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, v := range t {
		switch v.Kind() {
		case types.KindInt, types.KindFloat:
			b = binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(v.AsFloat()))
		case types.KindString:
			b = binary.AppendUvarint(append(b, 's'), uint64(len(v.AsString())))
			b = append(b, v.AsString()...)
		case types.KindBool:
			b = append(b, 'b')
			if v.AsBool() {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		default:
			b = append(b, 'n')
		}
	}
	return b
}

func digestBytes(b []byte) digest { return sha256.Sum256(b) }

// answerLog keeps, per distinct scenario, the digests of every answer
// the window produced for it. Each answer must equal the oracle's.
type answerLog map[int]map[digest]int

func (l answerLog) add(key int, d digest) {
	if l[key] == nil {
		l[key] = map[digest]int{}
	}
	l[key][d]++
}

// verify checks scenario key's answers against the oracle's digest and
// returns how many answers were wrong.
func (l answerLog) verify(key int, oracle digest) int {
	wrong := 0
	for d, n := range l[key] {
		if d != oracle {
			wrong += n
		}
	}
	return wrong
}

// count returns how many answers scenario key has.
func (l answerLog) count(key int) int {
	n := 0
	for _, c := range l[key] {
		n += c
	}
	return n
}

// decodeWhatIf decodes a /v1/whatif response body.
func decodeWhatIf(body []byte) (delta.Set, error) {
	var resp service.WhatIfResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Delta, nil
}

// wireBody renders modifications as a /v1/whatif request body.
func wireBody(mods []history.Modification) ([]byte, error) {
	req := service.WhatIfRequest{Modifications: wireMods(mods)}
	return json.Marshal(req)
}

func wireMods(mods []history.Modification) []service.Modification {
	var out []service.Modification
	for _, m := range mods {
		switch x := m.(type) {
		case history.Replace:
			out = append(out, service.Modification{Op: "replace", Pos: x.Pos + 1, Statement: x.Stmt.String()})
		case history.InsertStmt:
			out = append(out, service.Modification{Op: "insert", Pos: x.Pos + 1, Statement: x.Stmt.String()})
		case history.DeleteStmt:
			out = append(out, service.Modification{Op: "delete", Pos: x.Pos + 1})
		}
	}
	return out
}

// parallel runs job(0), ..., job(n-1) on GOMAXPROCS workers and waits
// for them. Oracle checks run this way: they are outside every timed
// figure, and Naive is the costliest part of a run.
func parallel(n int, job func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
