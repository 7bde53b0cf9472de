package payless

import (
	"context"

	"payless/internal/obs"
	"payless/internal/overload"
)

// queryScope derives the per-query context every query runs under: the
// configured QueryDeadline is applied when the caller supplied no deadline
// of its own, and a fresh retry-token budget is attached so transport
// retries, federation failovers and hedges across the whole query share one
// pool instead of multiplying independently per layer.
func (c *Client) queryScope(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if d := c.cfg.QueryDeadline; d > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
	}
	if c.cfg.RetryBudget >= 0 {
		base := c.cfg.RetryBudget
		if base == 0 {
			base = overload.DefaultBaseCredit
		}
		ctx = overload.WithBudget(ctx, overload.NewRetryBudget(base))
	}
	return ctx, cancel
}

// AddQueueDepth moves the client's admission-queue-depth gauge
// (payless_queue_depth) by delta. The daemon's load shedder feeds it as
// requests start and stop waiting for an execution slot; embedding callers
// with their own admission queue may do the same.
func (c *Client) AddQueueDepth(delta int64) { c.metrics.Add(obs.QueueDepth, delta) }
