package main

import (
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"

	payless "payless"

	"payless/internal/connector"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

// tuplesPerTransaction is the market page size t (paper default).
const tuplesPerTransaction = 100

// marketEnv is the seller side every workload buys from: the WHW data at
// the default scale, published on one in-process market served over
// loopback HTTP.
type marketEnv struct {
	w   *workload.WHW
	m   *market.Market
	srv *httptest.Server
}

func newMarketEnv() (*marketEnv, error) {
	w := workload.GenerateWHW(workload.DefaultWHWConfig())
	m := market.New()
	if err := w.Install(m, storage.NewDB(), tuplesPerTransaction, 1); err != nil {
		return nil, fmt.Errorf("install WHW: %w", err)
	}
	return &marketEnv{w: w, m: m, srv: httptest.NewServer(m.Handler())}, nil
}

func (e *marketEnv) close() { e.srv.Close() }

// billed is the seller meter's transaction count for an account.
func (e *marketEnv) billed(key string) int64 {
	mt, _ := e.m.MeterOf(key)
	return mt.Transactions
}

// openHTTP opens a buyer client the way payless.OpenHTTP does — a fresh
// account, the catalog and page sizes fetched over HTTP, ZipMap loaded
// locally — but lets the traced run wrap the connector in a timing Caller.
func (e *marketEnv) openHTTP(key string, p *probe, opts ...payless.Option) (*payless.Client, error) {
	e.m.RegisterAccount(key)
	conn := connector.New(e.srv.URL, key)
	tables, err := conn.Catalog()
	if err != nil {
		return nil, fmt.Errorf("fetch catalog: %w", err)
	}
	tpt := make(map[string]int)
	for _, t := range tables {
		if _, ok := tpt[t.Dataset]; !ok {
			n, err := conn.TuplesPerTransaction(t.Dataset)
			if err != nil {
				return nil, fmt.Errorf("fetch page size: %w", err)
			}
			tpt[t.Dataset] = n
		}
	}
	var caller market.Caller = conn
	if p != nil {
		caller = p.wrapCaller(conn)
		opts = append(opts, payless.WithTracer(p))
	}
	c, err := payless.Open(payless.Config{
		Tables:               append(tables, e.w.ZipMap),
		Caller:               caller,
		TuplesPerTransaction: tpt,
	}, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.LoadLocal("ZipMap", e.w.ZipMapRows); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// reference answers each distinct query with a separate client that has
// semantic query rewriting disabled and buys under its own account, so its
// access paths share nothing with the measured client's. It returns the
// canonical hash of each query's rows.
func (e *marketEnv) reference(sqls []string) (map[string]uint64, error) {
	const key = "reference"
	e.m.RegisterAccount(key)
	c, err := payless.Open(payless.Config{
		Tables:                      append(e.m.ExportCatalog(), e.w.ZipMap),
		Caller:                      market.AccountCaller{Market: e.m, Key: key},
		DefaultTuplesPerTransaction: tuplesPerTransaction,
	}, payless.WithoutSQR())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.LoadLocal("ZipMap", e.w.ZipMapRows); err != nil {
		return nil, err
	}
	ref := make(map[string]uint64, len(sqls))
	for _, sql := range sqls {
		if _, ok := ref[sql]; ok {
			continue
		}
		res, err := c.Query(sql)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", sql, err)
		}
		ref[sql] = canonHash(res.Rows)
	}
	return ref, nil
}

// canonHash hashes rows in an order- and float-format-insensitive form:
// rows sorted, floats rounded to six significant digits.
func canonHash(rows [][]string) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		norm := make([]string, len(r))
		for j, cell := range r {
			if f, err := strconv.ParseFloat(cell, 64); err == nil && strings.ContainsAny(cell, ".eE") {
				norm[j] = strconv.FormatFloat(f, 'g', 6, 64)
			} else {
				norm[j] = cell
			}
		}
		lines[i] = strings.Join(norm, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
