package netproto

import (
	"context"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// This file is the client half of batched RM signaling. With
// WithBatchWindow(d), Renegotiate calls enqueue their sequenced delta here
// instead of sending a datagram each; the window's entries are flushed as
// one TypeRMBatch frame when d elapses, when MaxRMBatch entries accumulate,
// or when a second renegotiation arrives for a VC already in the window
// (batch entries must be distinct VCs so replies can be matched back).
//
// Correctness relies on two properties of the switch. Batch entries are
// sequenced deltas, so the whole frame is retransmitted unchanged on
// timeout and a replayed entry is dropped by the duplicate filter and
// answered with the absolute rate. And any entry the batch path cannot
// resolve — a missing reply entry, a batch-level error, a peer that never
// answers batch frames — falls back to the per-VC resync path, which
// carries the absolute target rate and needs nothing from the batch
// attempt. Batching therefore never changes outcomes, only datagram count.

// batchEntry is one caller's renegotiation waiting in the window.
type batchEntry struct {
	id     switchfab.VCID
	m      cell.RM
	target float64 // absolute rate, for the fallback path
	done   chan batchOutcome
}

// batchOutcome is what the flusher delivers to a waiting caller: the
// backward RM message, or fallback=true when the caller must renegotiate
// individually.
type batchOutcome struct {
	m        cell.RM
	fallback bool
}

// renegotiateBatched enqueues the delta and waits for the window's flush to
// deliver the backward message, falling back to an individual resync when
// the batch path cannot resolve this VC.
func (c *Client) renegotiateBatched(ctx context.Context, vci uint16, target float64, m cell.RM) (float64, bool, error) {
	done := make(chan batchOutcome, 1)
	c.enqueueBatch(batchEntry{id: switchfab.VCID(vci), m: m, target: target, done: done})
	select {
	case out := <-done:
		if out.fallback {
			c.ins.batchFallbacks.Inc()
			return c.Resync(ctx, vci, target)
		}
		return out.m.ER, !out.m.Deny, nil
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// enqueueBatch adds an entry to the window, starting the flush timer on the
// first entry and flushing early on a full window or a duplicate VC.
func (c *Client) enqueueBatch(e batchEntry) {
	c.bmu.Lock()
	for _, p := range c.bpend {
		if p.id == e.id {
			// The window already renegotiates this VC; flush it so each
			// batch keeps distinct VCs and replies match unambiguously.
			pend := c.takeBatchLocked()
			c.bmu.Unlock()
			go c.flushBatch(pend)
			c.bmu.Lock()
			break
		}
	}
	c.bpend = append(c.bpend, e)
	if len(c.bpend) == 1 {
		c.btimer = time.AfterFunc(c.batchWindow, c.flushTimer)
	}
	if len(c.bpend) >= MaxRMBatch {
		pend := c.takeBatchLocked()
		c.bmu.Unlock()
		go c.flushBatch(pend)
		return
	}
	c.bmu.Unlock()
}

// takeBatchLocked detaches the window's entries and stops its timer. The
// caller must hold bmu.
func (c *Client) takeBatchLocked() []batchEntry {
	pend := c.bpend
	c.bpend = nil
	if c.btimer != nil {
		c.btimer.Stop()
		c.btimer = nil
	}
	return pend
}

// flushTimer is the AfterFunc body: the window elapsed.
func (c *Client) flushTimer() {
	c.bmu.Lock()
	pend := c.takeBatchLocked()
	c.bmu.Unlock()
	if len(pend) > 0 {
		c.flushBatch(pend)
	}
}

// flushBatch sends one coalesced batch frame and delivers every entry's
// outcome exactly once. It runs outside any lock. The frame retransmits
// unchanged across attempts (see the file comment for why that is safe);
// flushing is not bound to any one caller's context — each caller's wait
// is, which is where cancellation belongs.
func (c *Client) flushBatch(entries []batchEntry) {
	c.ins.batches.Inc()
	c.ins.batchCells.Add(int64(len(entries)))
	items := make([]switchfab.RMItem, len(entries))
	for i, e := range entries {
		items[i] = switchfab.RMItem{ID: e.id, M: e.m}
	}
	id := c.newID()
	bufp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bufp)
	f, err := c.roundTrip(context.Background(), id, true, func(int) ([]byte, error) {
		return AppendRMBatch((*bufp)[:0], id, items)
	})
	if err != nil || f.Type != TypeRMBatchReply {
		// Timeout, socket error, remote error, or a peer that does not
		// answer batch frames: every entry resolves individually.
		c.deliverFallback(entries)
		return
	}
	replies, derr := DecodeRMBatch(f.Payload, nil)
	if derr != nil {
		c.deliverFallback(entries)
		return
	}
	for _, e := range entries {
		delivered := false
		for _, r := range replies {
			if r.ID == e.id {
				e.done <- batchOutcome{m: r.M}
				delivered = true
				break
			}
		}
		if !delivered {
			e.done <- batchOutcome{fallback: true}
		}
	}
}

// deliverFallback resolves every entry to the per-VC path.
func (c *Client) deliverFallback(entries []batchEntry) {
	for _, e := range entries {
		e.done <- batchOutcome{fallback: true}
	}
}
