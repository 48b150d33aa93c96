//! Heap-indexed rebalancing, shared by graph and netlist bisections.
//!
//! A rebalance repeatedly moves the best-gain item of the heavier side
//! among those lighter than the current weight imbalance (gain ties
//! toward the lower id) until the imbalance is within the balance
//! tolerance. Scanning the heavy side for every move costs `O(n)` per
//! move; here the heavy side keeps a lazy max-heap keyed
//! `(gain, Reverse(id))` instead. A popped entry is dropped when its
//! item has left the side, when its gain is stale (the item was pushed
//! again with its new gain when the gain changed), or when its weight
//! is at least the imbalance — which falls strictly with every move, so
//! such an item never becomes eligible again. Every eligible item
//! therefore has an entry carrying its current key, every entry that
//! survives the checks carries a true key, and keys are unique per
//! item: each pick equals the scan's, in `O(n + moves·deg·log n)`
//! total.
//!
//! The heavy side does not change while the bisection is unbalanced:
//! a move that overshoots leaves an imbalance below the moved weight,
//! which the tolerance (at least the largest weight, or the parity
//! remainder on unit weights) accepts. Should it change, the heap is
//! refilled for the new heavy side.
//!
//! The heap lives in the [`Workspace`](crate::workspace::Workspace), so
//! a warm workspace rebalances without allocating.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bisect_graph::{VertexId, VertexWeight};

use crate::partition::Side;

/// One bisection as a rebalance sees it. The graph and netlist
/// implementations differ only in where gains come from and in which
/// items a move disturbs.
pub(crate) trait Moves {
    /// Number of items (vertices or cells).
    fn len(&self) -> usize;
    /// Total weight of side `s`.
    fn side_weight(&self, s: Side) -> VertexWeight;
    /// The side of item `v`.
    fn side(&self, v: VertexId) -> Side;
    /// The weight of item `v`.
    fn weight(&self, v: VertexId) -> VertexWeight;
    /// Whether item `v` may move (fixed cells may not).
    fn movable(&self, v: VertexId) -> bool;
    /// The current gain of moving `v`.
    fn gain(&self, v: VertexId) -> i64;
    /// Moves `v` to the other side, appending to `touched` every other
    /// item whose gain the move may have changed.
    fn apply(&mut self, v: VertexId, touched: &mut Vec<VertexId>);
}

/// The heavy side's lazy max-heap and the touched-item buffer of one
/// rebalance, retained across calls.
#[derive(Debug, Default)]
pub(crate) struct RebalanceHeap {
    heap: BinaryHeap<(i64, Reverse<VertexId>)>,
    touched: Vec<VertexId>,
}

impl RebalanceHeap {
    /// Moves items until the side weights differ by at most
    /// `tolerance`, or until the heavy side has no movable item lighter
    /// than the imbalance — possible only when cells are fixed, as any
    /// imbalance the balance tolerance rejects exceeds every item's
    /// weight.
    pub(crate) fn run<M: Moves>(&mut self, m: &mut M, tolerance: VertexWeight) {
        let mut heap_side = None;
        loop {
            let imbalance = current_imbalance(m);
            if imbalance <= tolerance {
                return;
            }
            let heavy = if m.side_weight(Side::A) > m.side_weight(Side::B) {
                Side::A
            } else {
                Side::B
            };
            if heap_side != Some(heavy) {
                self.fill(m, heavy, imbalance);
                heap_side = Some(heavy);
            }
            let pick = loop {
                let Some((gain, Reverse(v))) = self.heap.pop() else {
                    break None;
                };
                if m.side(v) == heavy && m.weight(v) < imbalance && m.gain(v) == gain {
                    break Some(v);
                }
            };
            let Some(v) = pick else {
                return;
            };
            self.touched.clear();
            m.apply(v, &mut self.touched);
            let imbalance = current_imbalance(m);
            for &u in &self.touched {
                if m.side(u) == heavy && m.movable(u) && m.weight(u) < imbalance {
                    self.heap.push((m.gain(u), Reverse(u)));
                }
            }
        }
    }

    /// Refills the heap with every movable item of `side` lighter than
    /// `imbalance`, keyed by its current gain: `O(n)` plus the gain
    /// reads, with a linear-time heapify.
    fn fill<M: Moves>(&mut self, m: &M, side: Side, imbalance: VertexWeight) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        entries.extend(
            (0..m.len() as VertexId)
                .filter(|&v| m.side(v) == side && m.movable(v) && m.weight(v) < imbalance)
                .map(|v| (m.gain(v), Reverse(v))),
        );
        self.heap = BinaryHeap::from(entries);
    }
}

fn current_imbalance<M: Moves>(m: &M) -> VertexWeight {
    m.side_weight(Side::A).abs_diff(m.side_weight(Side::B))
}

/// Test support: a [`Moves`] adapter that logs every move it applies.
#[cfg(test)]
pub(crate) struct Recording<M> {
    pub(crate) inner: M,
    pub(crate) log: Vec<VertexId>,
}

#[cfg(test)]
impl<M: Moves> Moves for Recording<M> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn side_weight(&self, s: Side) -> VertexWeight {
        self.inner.side_weight(s)
    }

    fn side(&self, v: VertexId) -> Side {
        self.inner.side(v)
    }

    fn weight(&self, v: VertexId) -> VertexWeight {
        self.inner.weight(v)
    }

    fn movable(&self, v: VertexId) -> bool {
        self.inner.movable(v)
    }

    fn gain(&self, v: VertexId) -> i64 {
        self.inner.gain(v)
    }

    fn apply(&mut self, v: VertexId, touched: &mut Vec<VertexId>) {
        self.log.push(v);
        self.inner.apply(v, touched);
    }
}
