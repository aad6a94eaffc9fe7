package server

import (
	"testing"

	"surfstitch/internal/obs"
)

func testMetrics() *obs.ServerMetrics {
	return obs.NewServerMetrics(obs.NewRegistry())
}

func TestQueueBackpressureAndClose(t *testing.T) {
	m := testMetrics()
	q := NewQueue(1, m)
	j1 := &Job{rec: Record{ID: "j-1", State: StateQueued}}
	j2 := &Job{rec: Record{ID: "j-2", State: StateQueued}}
	if !q.Submit(j1) {
		t.Fatal("first submit rejected")
	}
	if q.Submit(j2) {
		t.Fatal("second submit accepted past capacity")
	}
	if m.Backpressure.Value() != 1 {
		t.Fatalf("backpressure = %d, want 1", m.Backpressure.Value())
	}
	q.Close()
	q.Close() // idempotent
	if q.Submit(j2) {
		t.Fatal("submit accepted after close")
	}
	if got := <-q.Take(); got != j1 {
		t.Fatalf("Take = %v, want j1", got)
	}
	if _, ok := <-q.Take(); ok {
		t.Fatal("channel still open after drain + close")
	}
}
