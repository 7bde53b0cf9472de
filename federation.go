package payless

import (
	"fmt"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/federation"
	"payless/internal/market"
)

// MarketEndpoint configures one market mirror of a federated client.
type MarketEndpoint struct {
	// Name identifies the endpoint in traces, metrics, and health reports
	// (e.g. "us-east"). Empty names are auto-filled as "endpoint-<i>".
	Name string
	// BaseURL and AccountKey describe the mirror's HTTP market server;
	// OpenFederated builds a connector from them when Caller is nil.
	BaseURL    string
	AccountKey string
	// Caller is a pre-built transport for the endpoint (an in-process
	// market.AccountCaller in tests, or a custom connector). Takes
	// precedence over BaseURL.
	Caller market.Caller
	// PriceFactor scales list price at this mirror (<= 0 means 1.0);
	// LatencyHint seeds the cost model until observed latencies accumulate.
	PriceFactor float64
	LatencyHint time.Duration
}

// EndpointHealth is one federation endpoint's health, as reported by
// Client.FederationHealth and the daemon's /healthz.
type EndpointHealth = federation.EndpointHealth

// OpenFederated is OpenHTTP for a federated buyer: it builds one HTTP
// connector per endpoint (endpoints with a pre-built Caller keep it),
// bootstraps the catalog and page sizes from the first endpoint that
// answers — registration itself fails over — and opens a Client whose calls
// are routed by the federation layer. Every market table is annotated with
// a catalog Mirror entry per endpoint, recording the terms (price factor,
// latency hint, account key) the source-selection cost model uses.
func OpenFederated(endpoints []MarketEndpoint, localTables []*catalog.Table, opts ...Option) (*Client, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("payless: OpenFederated requires at least one endpoint")
	}
	eps, err := cfg.resolveEndpoints(endpoints)
	if err != nil {
		return nil, err
	}
	// Registration: fetch the catalog and per-dataset page sizes from the
	// first endpoint that answers, so a down mirror cannot block startup.
	if len(cfg.Tables) == 0 {
		var lastErr error
		for _, ep := range eps {
			cli, ok := ep.Caller.(*connector.Client)
			if !ok {
				continue
			}
			tables, tpt, err := fetchRegistration(cli)
			if err != nil {
				lastErr = fmt.Errorf("endpoint %s: %w", ep.Name, err)
				continue
			}
			cfg.Tables = append(tables, localTables...)
			cfg.TuplesPerTransaction = tpt
			break
		}
		if len(cfg.Tables) == 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("no HTTP endpoint to register with (pass Tables via options for in-process callers)")
			}
			return nil, fmt.Errorf("payless: federated registration failed: %w", lastErr)
		}
	}
	// Annotate each market table with its mirrors so the catalog records —
	// and the cost model sees — which endpoints offer it and at what terms.
	for _, t := range cfg.Tables {
		if t.Local || len(t.Mirrors) > 0 {
			continue
		}
		for _, ep := range eps {
			t.Mirrors = append(t.Mirrors, catalog.Mirror{
				Endpoint:    ep.Name,
				PriceFactor: ep.PriceFactor,
				LatencyHint: ep.LatencyHint,
				AccountKey:  ep.AccountKey,
			})
		}
	}
	cfg.FederationEndpoints = eps
	return Open(cfg)
}

// resolveEndpoints copies endpoints, naming unnamed ones "endpoint-<i>"
// and giving each endpoint without a pre-built Caller an HTTP connector
// built from its BaseURL with the config's transport knobs.
func (cfg *Config) resolveEndpoints(endpoints []MarketEndpoint) ([]MarketEndpoint, error) {
	eps := make([]MarketEndpoint, len(endpoints))
	copy(eps, endpoints)
	for i := range eps {
		if eps[i].Name == "" {
			eps[i].Name = fmt.Sprintf("endpoint-%d", i)
		}
		if eps[i].Caller == nil {
			if eps[i].BaseURL == "" {
				return nil, fmt.Errorf("payless: federation endpoint %q needs a BaseURL or a Caller", eps[i].Name)
			}
			eps[i].Caller = connector.New(eps[i].BaseURL, eps[i].AccountKey, cfg.connectorOptions()...)
		}
	}
	return eps, nil
}

// fetchRegistration pulls one endpoint's catalog and page sizes.
func fetchRegistration(cli *connector.Client) ([]*catalog.Table, map[string]int, error) {
	tables, err := cli.Catalog()
	if err != nil {
		return nil, nil, err
	}
	tpt := make(map[string]int)
	for _, t := range tables {
		if _, ok := tpt[t.Dataset]; !ok {
			pt, err := cli.TuplesPerTransaction(t.Dataset)
			if err != nil {
				return nil, nil, err
			}
			tpt[t.Dataset] = pt
		}
	}
	return tables, tpt, nil
}

// FederationHealth reports each federation endpoint's health — calls,
// failures, latency EWMA, open circuits — in configuration order. It
// returns nil for non-federated clients.
func (c *Client) FederationHealth() []EndpointHealth {
	if c.fed == nil {
		return nil
	}
	return c.fed.Health()
}

// mirrorTable is the federation layer's mutable view of which endpoints
// mirror each market table and at what terms. It starts as a copy of the
// catalog's Mirror annotations and is rewritten by
// UpdateFederationEndpoints, so routing terms can change at runtime without
// mutating catalog tables that queries read concurrently.
type mirrorTable struct {
	mu      sync.RWMutex
	byTable map[string][]catalog.Mirror
}

// newMirrorTable seeds the table from the catalog annotations.
func newMirrorTable(tables []*catalog.Table) *mirrorTable {
	mt := &mirrorTable{byTable: make(map[string][]catalog.Mirror)}
	for _, t := range tables {
		if t.Local || len(t.Mirrors) == 0 {
			continue
		}
		mt.byTable[t.Name] = append([]catalog.Mirror(nil), t.Mirrors...)
	}
	return mt
}

// get is the federation Config.Mirrors callback.
func (mt *mirrorTable) get(table string) []catalog.Mirror {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.byTable[table]
}

// sync rewrites the mirror sets after an endpoint swap. Only tables whose
// mirror set named exactly the previous endpoint pool are rewritten — those
// were auto-annotated "every endpoint offers this table" entries (the
// OpenFederated default); a table pinned to a subset of endpoints keeps its
// pinning, minus endpoints that no longer exist.
func (mt *mirrorTable) sync(prevNames []string, eps []MarketEndpoint) {
	prev := make(map[string]bool, len(prevNames))
	for _, n := range prevNames {
		prev[n] = true
	}
	auto := make([]catalog.Mirror, 0, len(eps))
	alive := make(map[string]bool, len(eps))
	for _, ep := range eps {
		alive[ep.Name] = true
		auto = append(auto, catalog.Mirror{
			Endpoint:    ep.Name,
			PriceFactor: ep.PriceFactor,
			LatencyHint: ep.LatencyHint,
			AccountKey:  ep.AccountKey,
		})
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for table, ms := range mt.byTable {
		full := len(ms) == len(prev)
		for _, m := range ms {
			if !prev[m.Endpoint] {
				full = false
				break
			}
		}
		if full {
			mt.byTable[table] = append([]catalog.Mirror(nil), auto...)
			continue
		}
		kept := ms[:0]
		for _, m := range ms {
			if alive[m.Endpoint] {
				kept = append(kept, m)
			}
		}
		mt.byTable[table] = kept
	}
}

// UpdateFederationEndpoints hot-swaps the federated client's endpoint pool:
// the new set replaces the old atomically, endpoints kept by name carry
// their observed health (latency EWMA, failure streaks, call counts) across
// the swap, and in-flight calls complete against the endpoints they
// started on. Auto-annotated mirror sets (every endpoint offers every
// table — the OpenFederated default) are rewritten to the new pool's terms;
// mirror sets pinned to an endpoint subset keep their pinning. Endpoints
// without a pre-built Caller get an HTTP connector from BaseURL using the
// client's transport knobs. Returns an error — leaving the pool untouched —
// on a non-federated client or an invalid endpoint set.
func (c *Client) UpdateFederationEndpoints(endpoints []MarketEndpoint) error {
	if c.fed == nil {
		return fmt.Errorf("payless: client is not federated")
	}
	eps, err := c.cfg.resolveEndpoints(endpoints)
	if err != nil {
		return err
	}
	built := make([]federation.Endpoint, 0, len(eps))
	for _, ep := range eps {
		built = append(built, federation.Endpoint{
			Name:        ep.Name,
			Caller:      ep.Caller,
			PriceFactor: ep.PriceFactor,
			LatencyHint: ep.LatencyHint,
		})
	}
	c.fedmu.Lock()
	defer c.fedmu.Unlock()
	prevNames := c.fed.Names()
	if err := c.fed.UpdateEndpoints(built); err != nil {
		return err
	}
	c.mirrors.sync(prevNames, eps)
	return nil
}
