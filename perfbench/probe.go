package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	payless "payless"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
)

// probe is the traced run's instrument. Everything it sees it measures
// from outside the program: it is the client's Tracer (keeping every
// finished trace in memory), a timing wrapper around the market Caller and
// the client Admitter, and the benchmark's own record of each request.
type probe struct {
	epoch time.Time
	// on is set during timed phases; set-up work is not recorded.
	on atomic.Bool

	mu       sync.Mutex
	traces   []*obs.Trace
	timed    []interval
	requests []request
}

// interval is one timed call into a layer's public interface.
type interval struct {
	req        int64
	layer      string
	start, end time.Time
}

// request is one benchmark request: a direct Query call, or an HTTP round
// trip to the daemon (http true). trace is the query's trace once known.
type request struct {
	id         int64
	sql        string
	http       bool
	start, end time.Time
	trace      *obs.Trace
}

func newProbe() *probe { return &probe{epoch: time.Now()} }

// record switches recording on or off; safe on a nil probe.
func (p *probe) record(on bool) {
	if p != nil {
		p.on.Store(on)
	}
}

// Begin implements payless.Tracer: every query is traced.
func (p *probe) Begin(sql string) *obs.Trace { return obs.NewTrace(sql) }

// Finish implements payless.Tracer.
func (p *probe) Finish(t *obs.Trace) {
	if !p.on.Load() {
		return
	}
	p.mu.Lock()
	p.traces = append(p.traces, t)
	p.mu.Unlock()
}

func (p *probe) add(iv interval) {
	if !p.on.Load() {
		return
	}
	p.mu.Lock()
	p.timed = append(p.timed, iv)
	p.mu.Unlock()
}

func (p *probe) addRequest(r request) {
	p.mu.Lock()
	p.requests = append(p.requests, r)
	p.mu.Unlock()
}

type requestKey struct{}

// withRequest tags ctx with the benchmark's request id; the timing wrappers
// read it back to attribute their calls.
func withRequest(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, requestKey{}, id)
}

func requestOf(ctx context.Context) int64 {
	id, _ := ctx.Value(requestKey{}).(int64)
	return id
}

// requestHeader carries the request id from the load generator to the
// daemon, where tagRequests moves it onto the request context.
const requestHeader = "X-Perfbench-Request"

// tagRequests wraps the daemon's handler so calls made on behalf of a
// request carry its id.
func (p *probe) tagRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64); err == nil {
			r = r.WithContext(withRequest(r.Context(), id))
		}
		h.ServeHTTP(w, r)
	})
}

// timedCaller times every wire call the client makes to the market.
type timedCaller struct {
	next market.Caller
	p    *probe
}

func (p *probe) wrapCaller(next market.Caller) market.Caller { return timedCaller{next, p} }

func (c timedCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	start := time.Now()
	res, err := c.next.Call(ctx, q)
	c.p.add(interval{req: requestOf(ctx), layer: "connector.call", start: start, end: time.Now()})
	return res, err
}

// timedAdmitter times the tenant layer's reserve and settle.
type timedAdmitter struct {
	next payless.Admitter
	p    *probe
}

func (p *probe) wrapAdmitter(next payless.Admitter) payless.Admitter { return timedAdmitter{next, p} }

func (a timedAdmitter) Reserve(ctx context.Context, est int64) error {
	start := time.Now()
	err := a.next.Reserve(ctx, est)
	a.p.add(interval{req: requestOf(ctx), layer: "tenant.reserve", start: start, end: time.Now()})
	return err
}

func (a timedAdmitter) Settle(ctx context.Context, est, actual int64) {
	start := time.Now()
	a.next.Settle(ctx, est, actual)
	a.p.add(interval{req: requestOf(ctx), layer: "tenant.settle", start: start, end: time.Now()})
}

// matchTraces pairs daemon requests with the traces the client finished
// while serving them: same SQL, trace inside the round trip. Direct
// requests already carry their trace.
func (p *probe) matchTraces() {
	bySQL := make(map[string][]*obs.Trace)
	for _, t := range p.traces {
		bySQL[t.SQL] = append(bySQL[t.SQL], t)
	}
	for i := range p.requests {
		r := &p.requests[i]
		if r.trace != nil {
			continue
		}
		cands := bySQL[r.sql]
		for j, t := range cands {
			if !t.Start.Before(r.start) && !t.Start.Add(t.Total).After(r.end) {
				r.trace = t
				bySQL[r.sql] = append(cands[:j:j], cands[j+1:]...)
				break
			}
		}
	}
}

// span is one node of the reconstructed span tree, as dumped.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// phaseLayer names the client's own trace phases by module.
var phaseLayer = map[string]string{
	"parse":    "sqlparse.parse",
	"bind":     "core.bind",
	"optimize": "core.optimize",
	"execute":  "engine.execute",
}

// spanTree rebuilds each request's spans: the daemon round trip, the query
// and its phases from the trace, and the timed tenant and wire calls
// attributed to the request. Wire calls the call scheduler issues on behalf
// of several requests carry no request and become roots. Self time is a
// span's duration minus the part its children cover.
func (p *probe) spanTree() []span {
	us := func(t time.Time) float64 { return float64(t.Sub(p.epoch).Nanoseconds()) / 1e3 }
	var out []span
	addSpan := func(parent int, req int64, layer string, start, end time.Time) int {
		out = append(out, span{ID: len(out), Parent: parent, Req: req, Layer: layer, Start: us(start), End: us(end)})
		return len(out) - 1
	}
	byReq := make(map[int64][]interval)
	for _, iv := range p.timed {
		if iv.req == 0 {
			addSpan(-1, 0, iv.layer, iv.start, iv.end)
			continue
		}
		byReq[iv.req] = append(byReq[iv.req], iv)
	}
	for _, r := range p.requests {
		parent := -1
		if r.http {
			parent = addSpan(-1, r.id, "daemon.request", r.start, r.end)
		}
		if r.trace == nil {
			continue
		}
		t := r.trace
		query := addSpan(parent, r.id, "payless.query", t.Start, t.Start.Add(t.Total))
		exec := -1
		var execStart, execEnd time.Time
		for _, ph := range t.Spans {
			id := addSpan(query, r.id, phaseLayer[ph.Name], ph.Start, ph.Start.Add(ph.Duration))
			if ph.Name == "execute" {
				exec, execStart, execEnd = id, ph.Start, ph.Start.Add(ph.Duration)
			}
		}
		for _, iv := range byReq[r.id] {
			parent := query
			if exec >= 0 && !iv.start.Before(execStart) && !iv.end.After(execEnd) {
				parent = exec
			}
			addSpan(parent, r.id, iv.layer, iv.start, iv.end)
		}
	}
	children := make(map[int][]int)
	for _, s := range out {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(out, out[i], children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(all []span, parent span, kids []int) float64 {
	type seg struct{ lo, hi float64 }
	segs := make([]seg, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if hi > lo {
			segs = append(segs, seg{lo, hi})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
	var total, curLo, curHi float64
	open := false
	for _, s := range segs {
		if open && s.lo <= curHi {
			curHi = max(curHi, s.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = s.lo, s.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums self time per layer, in microseconds.
func selfTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += s.Self
	}
	return out
}

// describeSelf renders the per-layer self-time table for stderr.
func describeSelf(self map[string]float64, queries int) string {
	layers := make([]string, 0, len(self))
	var total float64
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	s := fmt.Sprintf("self time per query over %d queries:\n", queries)
	for _, l := range layers {
		s += fmt.Sprintf("  %-16s %10.1f us  %5.1f%%\n", l, self[l]/float64(max(queries, 1)), 100*self[l]/total)
	}
	return s
}
