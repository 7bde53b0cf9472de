package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	payless "payless"

	"payless/internal/daemon"
	"payless/internal/tenant"
	"payless/internal/workload"
)

const (
	// coldEpisodes fresh clients, each replaying coldPerTemplate instances
	// of each of Q1–Q4 drawn from its own sub-seed, make one buy_cold
	// cycle. Many short episodes give many distinct instances per run, so
	// the figures do not hinge on a few large queries of one seed.
	coldEpisodes    = 16
	coldPerTemplate = 10
	// warmPerTemplate instances of each of Q1–Q4 make the reuse_warm list;
	// its timed phase is split into warmWindows windows.
	warmPerTemplate = 100
	warmWindows     = 12
	// daemonRate sizes daemon_mixed's fixed work: --seconds × daemonRate
	// requests, about what daemonClients get through in --seconds on a
	// 2-vCPU machine (540-670/s). Fixed work keeps the bill a property of
	// the seed: a faster daemon finishes sooner, it does not buy more.
	daemonRate = 600
	// daemonSessions fresh daemons split daemon_mixed's timed phase, each
	// with its own stream and one window, so a run sees many cold buys
	// rather than one store filling up and then serving only hits.
	daemonSessions = 12
	// daemonClients closed-loop clients, each with one connection, share
	// daemon_mixed's streams. A closed loop rather than an open one: on a
	// shared host a stretch of CPU steal stalls an open loop's schedule,
	// and the backlog it leaves multiplies the latency of every request
	// due in it (p50 rose from 1.5 ms to 2-9 ms at a third of capacity),
	// while a closed loop slows only in proportion.
	daemonClients = 2
	// daemonTenants share the daemon. Every daemonFreshEvery-th request is
	// a fresh query instance, the templates taking turns; the rest repeat
	// earlier instances. The fresh ones buy and make the latency tail, so
	// they are frequent enough for a steady p95.
	daemonTenants    = 4
	daemonFreshEvery = 3
	// daemonWindow is paylessd's default call-scheduler coalesce window.
	daemonWindow = 2 * time.Millisecond
	// daemonPlanCache is paylessd's default plan-cache size.
	daemonPlanCache = 256
)

// templates are the Q1–Q4 Table 1 templates over the fixed default-scale
// WHW data; a workload's seed draws the instances.
func templates() []workload.Template {
	return workload.GenerateWHW(workload.DefaultWHWConfig()).Templates()[:4]
}

// serialQueries runs sqls one after another on c, checking each answer.
// It returns the transactions the client reported and the time spent
// checking, which the caller keeps out of the throughput.
func serialQueries(c *payless.Client, sqls []string, p *probe, ref map[string]uint64, ph *phase) (reported int64, checking time.Duration) {
	for _, sql := range sqls {
		ph.attempted++
		id := int64(ph.attempted)
		t0 := time.Now()
		res, err := c.QueryContext(withRequest(context.Background(), id), sql)
		t1 := time.Now()
		if err != nil {
			ph.fail("query %q: %v", sql, err)
			continue
		}
		ph.lat = append(ph.lat, ms(t1.Sub(t0)))
		reported += res.Report.Transactions
		if p != nil {
			p.addRequest(request{id: id, sql: sql, start: t0, end: t1, trace: res.Trace})
		}
		checking += ph.check(ref, sql, res.Rows)
	}
	return reported, checking
}

// ---- buy_cold ----------------------------------------------------------

func runBuyCold(o options) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	tpl := templates()
	lists := make([][]string, coldEpisodes)
	var all []string
	for i := range lists {
		lists[i] = workload.Mix(tpl, coldPerTemplate, rng.Int63())
		all = append(all, lists[i]...)
	}
	return runWorkload(o, spec{sessions: 1, distinct: all, setup: func(_ int, p *probe) (session, error) {
		e, err := newMarketEnv()
		if err != nil {
			return nil, err
		}
		return &buyCold{e: e, lists: lists, p: p}, nil
	}})
}

// buyCold replays its lists in episodes, each on a fresh client with a new
// market account and an empty store, so every query buys.
type buyCold struct {
	e     *marketEnv
	lists [][]string
	p     *probe
}

func (b *buyCold) env() *marketEnv { return b.e }
func (b *buyCold) close()          { b.e.close() }

// timed runs whole cycles of episodes, one window each, until d is up.
// billed is one cycle's seller bill, which must be the same for every
// cycle.
func (b *buyCold) timed(d time.Duration, ref map[string]uint64, ph *phase) {
	deadline := time.Now().Add(d)
	var cycleStart time.Time
	var checking time.Duration
	var cycleBills []int64
	n := len(b.lists)
	for ep := 0; ep < n || ep%n != 0 || time.Now().Before(deadline); ep++ {
		if ep%n == 0 {
			cycleBills = append(cycleBills, 0)
			cycleStart, checking = time.Now(), 0
			ph.startWindow()
		}
		// Each cycle reuses its episodes' account keys; openHTTP resets
		// the account, so the market's per-account state does not grow
		// with the number of cycles a run manages.
		key := fmt.Sprintf("cold-%d", ep%n)
		c, err := b.e.openHTTP(key, b.p)
		if err != nil {
			ph.attempted++
			ph.fail("episode %d: open client: %v", ep, err)
			break
		}
		reported, chk := serialQueries(c, b.lists[ep%n], b.p, ref, ph)
		checking += chk
		ph.counters = ph.counters.add(countersOf(c.Metrics()), 1)
		ph.entries = c.StoreStats().Entries
		if err := c.Close(); err != nil {
			ph.fail("episode %d: close client: %v", ep, err)
		}
		meter, _ := b.e.m.MeterOf(key)
		ph.meter = addMeter(ph.meter, meter, 1)
		if meter.Transactions != reported {
			ph.fail("episode %d: seller billed %d transactions, client reported %d", ep, meter.Transactions, reported)
		}
		cycleBills[ep/n] += meter.Transactions
		if ep%n == n-1 {
			ph.endWindow(time.Since(cycleStart) - checking)
		}
	}
	ph.billed += float64(cycleBills[0])
	for i, bill := range cycleBills {
		if bill != cycleBills[0] {
			ph.fail("cycle %d billed %d transactions, cycle 0 billed %d", i, bill, cycleBills[0])
		}
	}
}

// ---- reuse_warm --------------------------------------------------------

func runReuseWarm(o options) (*outcome, error) {
	sqls := workload.Mix(templates(), warmPerTemplate, o.seed)
	return runWorkload(o, spec{sessions: 1, distinct: sqls, setup: func(_ int, p *probe) (session, error) {
		e, err := newMarketEnv()
		if err != nil {
			return nil, err
		}
		w := &reuseWarm{e: e, sqls: sqls, p: p, fill: make(map[string]uint64)}
		if err := w.fillStore(); err != nil {
			e.close()
			return nil, err
		}
		return w, nil
	}})
}

// reuseWarm replays a list whose every answer a cold pass during set-up
// already bought, so the timed phase must bill nothing.
type reuseWarm struct {
	e    *marketEnv
	sqls []string
	p    *probe
	c    *payless.Client
	// fill holds the cold pass's answers and fillBilled its seller bill;
	// fillReported is what the client reported for it.
	fill         map[string]uint64
	fillBilled   int64
	fillReported int64
}

const warmAccount = "warm"

func (w *reuseWarm) fillStore() error {
	c, err := w.e.openHTTP(warmAccount, w.p)
	if err != nil {
		return err
	}
	w.c = c
	for _, sql := range w.sqls {
		res, err := c.Query(sql)
		if err != nil {
			c.Close()
			return fmt.Errorf("fill %q: %w", sql, err)
		}
		w.fill[sql] = canonHash(res.Rows)
		w.fillReported += res.Report.Transactions
	}
	w.fillBilled = w.e.billed(warmAccount)
	return nil
}

func (w *reuseWarm) env() *marketEnv { return w.e }

func (w *reuseWarm) close() {
	w.c.Close()
	w.e.close()
}

// timed replays whole passes over the list until d is up, closing a window
// after the first pass that ends past each warmWindows-th of d. billed is
// the set-up fill's seller bill; the replay itself must bill 0.
func (w *reuseWarm) timed(d time.Duration, ref map[string]uint64, ph *phase) {
	if w.fillBilled != w.fillReported {
		ph.fail("fill: seller billed %d transactions, client reported %d", w.fillBilled, w.fillReported)
	}
	for sql, h := range w.fill {
		if h != ref[sql] {
			ph.fail("fill: wrong answer for %q", sql)
		}
	}
	ph.billed += float64(w.fillBilled)
	meter0, _ := w.e.m.MeterOf(warmAccount)
	counters0 := countersOf(w.c.Metrics())
	var reported int64
	for i := 0; i < warmWindows; i++ {
		ph.startWindow()
		start := time.Now()
		end := start.Add(d / warmWindows)
		var checking time.Duration
		for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
			r, chk := serialQueries(w.c, w.sqls, w.p, ref, ph)
			reported += r
			checking += chk
		}
		ph.endWindow(time.Since(start) - checking)
	}
	meter1, _ := w.e.m.MeterOf(warmAccount)
	delta := addMeter(meter1, meter0, -1)
	ph.meter = addMeter(ph.meter, delta, 1)
	ph.counters = ph.counters.add(countersOf(w.c.Metrics()).add(counters0, -1), 1)
	ph.entries = w.c.StoreStats().Entries
	if delta.Transactions != 0 || reported != 0 {
		ph.fail("warm replay billed %d transactions (client reported %d), want 0", delta.Transactions, reported)
	}
}

// ---- daemon_mixed ------------------------------------------------------

// daemonReq is one request of a daemon_mixed stream.
type daemonReq struct {
	sql    string
	tenant int
}

// daemonStream draws n requests: one in daemonFreshEvery a new instance
// of Q1–Q4 in turn, the rest repeats of earlier instances drawn Zipf-skewed toward
// the oldest (most popular) ones, each from a random tenant.
func daemonStream(tpl []workload.Template, seed int64, n int) []daemonReq {
	rng := rand.New(rand.NewSource(seed))
	var pool []string
	out := make([]daemonReq, n)
	for i := range out {
		if i%daemonFreshEvery == 0 {
			pool = append(pool, tpl[(i/daemonFreshEvery)%len(tpl)].Instantiate(rng))
			out[i].sql = pool[len(pool)-1]
		} else {
			out[i].sql = pool[rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1)).Uint64()]
		}
		out[i].tenant = rng.Intn(daemonTenants)
	}
	return out
}

func runDaemonMixed(o options) (*outcome, error) {
	secs := o.seconds
	if o.trace {
		secs = min(secs, tracedSeconds)
	}
	n := int(daemonRate * secs / daemonSessions)
	if n == 0 {
		return nil, fmt.Errorf("%.3fs is too short for a request per session", secs)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	tpl := templates()
	streams := make([][]daemonReq, daemonSessions)
	var all []string
	for i := range streams {
		streams[i] = daemonStream(tpl, rng.Int63(), n)
		for _, r := range streams[i] {
			all = append(all, r.sql)
		}
	}
	return runWorkload(o, spec{sessions: daemonSessions, distinct: all, setup: func(i int, p *probe) (session, error) {
		return newDaemonMixed(o, streams[i%daemonSessions], int64(i)*int64(n), p)
	}})
}

// daemonMixed is paylessd's default wiring over a loopback HTTP market,
// with a durable store fsynced per call, serving four tenants.
type daemonMixed struct {
	e      *marketEnv
	stream []daemonReq
	// firstID numbers this session's requests after earlier sessions'.
	firstID int64
	p       *probe
	dir     string
	c       *payless.Client
	reg     *tenant.Registry
	keys    []string
	srv     *httptest.Server
}

const daemonAccount = "daemon"

func newDaemonMixed(o options, stream []daemonReq, firstID int64, p *probe) (*daemonMixed, error) {
	e, err := newMarketEnv()
	if err != nil {
		return nil, err
	}
	d := &daemonMixed{e: e, stream: stream, firstID: firstID, p: p}
	if err := d.start(o.workdir); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemonMixed) start(workdir string) error {
	cfgs := make([]tenant.Config, daemonTenants)
	for i := range cfgs {
		cfgs[i] = tenant.Config{Name: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("key-%d", i)}
		d.keys = append(d.keys, cfgs[i].Key)
	}
	reg, err := tenant.NewRegistry(0, cfgs...)
	if err != nil {
		return err
	}
	d.reg = reg
	if d.dir, err = os.MkdirTemp(workdir, "store-"); err != nil {
		return err
	}
	var adm payless.Admitter = reg
	if d.p != nil {
		adm = d.p.wrapAdmitter(reg)
	}
	d.c, err = d.e.openHTTP(daemonAccount, d.p,
		payless.WithAdmitter(adm),
		payless.WithCallScheduler(), payless.WithCoalesceWindow(daemonWindow),
		payless.WithPlanCache(daemonPlanCache),
		payless.WithDurableStore(d.dir))
	if err != nil {
		return err
	}
	srv, err := daemon.New(daemon.Config{Client: d.c, Registry: reg})
	if err != nil {
		return err
	}
	h := srv.Handler()
	if d.p != nil {
		h = d.p.tagRequests(h)
	}
	d.srv = httptest.NewServer(h)
	return nil
}

func (d *daemonMixed) env() *marketEnv { return d.e }

func (d *daemonMixed) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	if d.c != nil {
		d.c.Close()
	}
	d.e.close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// daemonResponse is the part of the daemon's JSON answer the gate reads.
type daemonResponse struct {
	Rows         [][]string `json:"rows"`
	Transactions int64      `json:"transactions"`
}

// reqOutcome is one open-loop request's result.
type reqOutcome struct {
	status       int
	err          string
	latMS        float64
	end          time.Time
	transactions int64
	wrong        bool
}

// timed runs the session's whole stream as a closed loop: each of
// daemonClients clients sends the stream's next request as soon as its
// last one is answered. billed is the seller bill.
func (d *daemonMixed) timed(_ time.Duration, ref map[string]uint64, ph *phase) {
	n := len(d.stream)
	results := make([]reqOutcome, n)
	spend0 := d.tenantSpend()
	counters0 := countersOf(d.c.Metrics())
	var next atomic.Int64
	var wg sync.WaitGroup
	ph.startWindow()
	start := time.Now()
	for s := 0; s < daemonClients; s++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		hc := &http.Client{Transport: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i] = d.send(hc, i, ref)
			}
		}()
	}
	wg.Wait()
	var last time.Time
	var reported int64
	for i, r := range results {
		ph.attempted++
		switch {
		case r.err != "":
			ph.fail("request %d: %s", i, r.err)
			continue
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			ph.shed++
			ph.fail("request %d shed (HTTP %d)", i, r.status)
			continue
		case r.status != http.StatusOK:
			ph.fail("request %d: HTTP %d", i, r.status)
			continue
		case r.wrong:
			ph.fail("request %d: wrong answer for %q", i, d.stream[i].sql)
		}
		ph.lat = append(ph.lat, r.latMS)
		reported += r.transactions
		if r.end.After(last) {
			last = r.end
		}
	}
	ph.endWindow(last.Sub(start))
	meter, _ := d.e.m.MeterOf(daemonAccount)
	ph.meter = addMeter(ph.meter, meter, 1)
	ph.billed += float64(meter.Transactions)
	ph.counters = ph.counters.add(countersOf(d.c.Metrics()).add(counters0, -1), 1)
	ph.entries = d.c.StoreStats().Entries
	ledgers := d.tenantSpend() - spend0
	if meter.Transactions != reported || ledgers != reported {
		ph.fail("seller billed %d transactions, responses reported %d, tenant ledgers %d",
			meter.Transactions, reported, ledgers)
	}
}

// send posts request i as its tenant and checks the answer.
func (d *daemonMixed) send(hc *http.Client, i int, ref map[string]uint64) reqOutcome {
	r := d.stream[i]
	body, err := json.Marshal(map[string]string{"sql": r.sql})
	if err != nil {
		return reqOutcome{err: err.Error()}
	}
	req, err := http.NewRequest(http.MethodPost, d.srv.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return reqOutcome{err: err.Error()}
	}
	req.Header.Set("Authorization", "Bearer "+d.keys[r.tenant])
	id := d.firstID + int64(i) + 1
	req.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	sent := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reqOutcome{err: err.Error()}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	out := reqOutcome{status: resp.StatusCode, latMS: ms(end.Sub(sent)), end: end}
	if err != nil {
		out.err = err.Error()
		return out
	}
	if d.p != nil {
		d.p.addRequest(request{id: id, sql: r.sql, http: true, start: sent, end: end})
	}
	if resp.StatusCode != http.StatusOK {
		return out
	}
	var dr daemonResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		out.err = fmt.Sprintf("decode response: %v", err)
		return out
	}
	out.transactions = dr.Transactions
	out.wrong = canonHash(dr.Rows) != ref[r.sql]
	return out
}

// tenantSpend sums the tenants' ledgers.
func (d *daemonMixed) tenantSpend() int64 {
	var sum int64
	for i := 0; i < daemonTenants; i++ {
		if t, ok := d.reg.Lookup(fmt.Sprintf("t%d", i)); ok {
			sum += t.Spend()
		}
	}
	return sum
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
