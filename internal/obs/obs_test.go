package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	end := tr.StartSpan("parse")
	end(nil)
	tr.AddCall(CallRecord{Transactions: 3})
	tr.AddStoreHit(10)
	tr.AddStoreRows(5)
	tr.SetPlan("p", 1)
	tr.SetCounters(1, 2, 3)
	tr.Finish()
	if tr.CallTransactions() != 0 || tr.Retries() != 0 {
		t.Error("nil trace should sum to zero")
	}
	if got := tr.Describe(); !strings.Contains(got, "no trace") {
		t.Errorf("nil Describe: %q", got)
	}
}

func TestTraceAccumulates(t *testing.T) {
	tr := NewTrace("SELECT 1")
	end := tr.StartSpan("parse")
	end(nil)
	tr.AddCall(CallRecord{Table: "Weather", Records: 120, Transactions: 2, Price: 2, Retries: 1, Latency: time.Millisecond})
	tr.AddCall(CallRecord{Table: "Weather", Records: 30, Transactions: 1, Price: 1})
	tr.AddStoreHit(40)
	tr.SetPlan("Weather(scan,3) est=3", 3)
	tr.SetCounters(4, 5, 2)
	tr.Finish()

	if got := tr.CallTransactions(); got != 3 {
		t.Errorf("CallTransactions = %d, want 3", got)
	}
	if got := tr.Retries(); got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
	if tr.Total <= 0 {
		t.Error("Finish should stamp Total")
	}
	out := tr.Describe()
	for _, want := range []string{"SELECT 1", "parse", "2 call(s)", "3 transactions", "Weather", "4 plans evaluated", "1 access(es) served locally"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q in:\n%s", want, out)
		}
	}
}

func TestSpanRecordsError(t *testing.T) {
	tr := NewTrace("x")
	end := tr.StartSpan("bind")
	end(context.Canceled)
	if len(tr.Spans) != 1 || tr.Spans[0].Err == "" {
		t.Fatalf("span error not recorded: %+v", tr.Spans)
	}
}

func TestContextCallPropagation(t *testing.T) {
	rec := &CallRecord{}
	ctx := ContextWithCall(context.Background(), rec)
	got := CallFromContext(ctx)
	if got != rec {
		t.Fatal("record did not round-trip through context")
	}
	got.AddRetry()
	got.AddRetry()
	if rec.Retries != 2 {
		t.Errorf("Retries = %d, want 2", rec.Retries)
	}
	if CallFromContext(context.Background()) != nil {
		t.Error("empty context should yield nil record")
	}
	var nilRec *CallRecord
	nilRec.AddRetry() // must not panic
}
