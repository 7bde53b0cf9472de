package payless

import (
	"encoding/json"
	"io"
	"time"

	"payless/internal/obs"
)

// AuditRecord is one line of the query audit log: what was asked, what plan
// ran, and what it cost. An organisation-wide PayLess installation (paper
// Fig. 2) keeps this trail to attribute the data-market bill to queries.
type AuditRecord struct {
	Time            time.Time `json:"time"`
	SQL             string    `json:"sql"`
	Plan            string    `json:"plan"`
	EstTransactions int64     `json:"estTransactions"`
	Calls           int64     `json:"calls"`
	Records         int64     `json:"records"`
	Transactions    int64     `json:"transactions"`
	Price           float64   `json:"price"`
	OptimizeMicros  int64     `json:"optimizeMicros"`
	// Trace-derived fields, present only when the query was traced.
	Retries      int64 `json:"retries,omitempty"`
	StoreHits    int   `json:"storeHits,omitempty"`
	StoreHitRows int64 `json:"storeHitRows,omitempty"`
	TotalMicros  int64 `json:"totalMicros,omitempty"`
}

// SetAuditLog starts appending one JSON line per executed query to w.
// Pass nil to stop. Writes are serialised with the client's lock.
func (c *Client) SetAuditLog(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.audit = w
}

// writeAudit appends one record. Auditing must never fail a query, so
// writer errors are swallowed — but not silently: every record that fails
// to marshal or to reach the sink in full is counted in the
// payless_audit_dropped_total metric (Metrics().AuditDropped).
func (c *Client) writeAudit(sql string, res *Result) {
	c.mu.Lock()
	w := c.audit
	c.mu.Unlock()
	if w == nil {
		return
	}
	rec := AuditRecord{
		Time:            time.Now(),
		SQL:             sql,
		Plan:            res.Plan,
		EstTransactions: res.EstTransactions,
		Calls:           res.Report.Calls,
		Records:         res.Report.Records,
		Transactions:    res.Report.Transactions,
		Price:           res.Report.Price,
		OptimizeMicros:  res.OptimizeTime.Microseconds(),
	}
	if tr := res.Trace; tr != nil {
		rec.Retries = tr.Retries()
		rec.StoreHits = tr.StoreHits
		rec.StoreHitRows = tr.StoreHitRows
		rec.TotalMicros = tr.Total.Microseconds()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		c.metrics.Add(obs.AuditDropped, 1)
		return
	}
	line = append(line, '\n')
	c.mu.Lock()
	n, err := w.Write(line)
	c.mu.Unlock()
	if err != nil || n != len(line) {
		c.metrics.Add(obs.AuditDropped, 1)
	}
}
