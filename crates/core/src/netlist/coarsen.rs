//! Cell matchings: how one level of the netlist pipeline picks the
//! cell pairs it contracts.
//!
//! A [`CellMatching`] returns the pairs of one level; the
//! [engine](super::NetlistPipeline) contracts them and drives the
//! matcher repeatedly according to the pipeline's
//! [`CoarsenDepth`](crate::pipeline::CoarsenDepth). Both matchers score
//! partners hMETIS-style (`Σ w(net)/(|net|−1)` over shared nets) and
//! return maximal matchings among the cells they may match:
//!
//! * [`RandomCellMatching`] — random cell visiting order
//!   ([`bisect_graph::hypergraph::random_cell_matching_with_skip`]);
//!   the default, and the one the golden-pinned experiments use.
//! * [`ParallelCellMatching`] — the hypergraph counterpart of
//!   [`crate::pipeline::ParallelMatching`] for million-cell coarsening:
//!   workers match cells within disjoint contiguous id ranges (ties to
//!   the lowest cell id), then a serial sweep matches the leftover
//!   cells across range boundaries. It draws **no randomness** and is
//!   deterministic at a fixed thread count but not across thread counts
//!   (range boundaries move which partners a worker can see).

use std::collections::BTreeMap;

use bisect_graph::hypergraph::{random_cell_matching_with_skip, Netlist};
use bisect_graph::VertexId;
use rand::RngCore;

/// One level of netlist coarsening: the cell pairs to contract.
/// Implementations draw all randomness from the supplied rng (and
/// nothing else), so a pipeline built from them inherits the crate-wide
/// determinism guarantee: same netlist, same rng stream, same ladder.
pub trait CellMatching: Send + Sync {
    /// A matching of `nl`: disjoint pairs of distinct cells sharing a
    /// net, maximal among the cells not flagged in `skip`. Flagged
    /// cells (the engine's fixed cells) are never matched. An empty
    /// `skip` skips nothing; missing entries count as `false`.
    fn matching(
        &self,
        nl: &Netlist,
        skip: &[bool],
        rng: &mut dyn RngCore,
    ) -> Vec<(VertexId, VertexId)>;
}

/// The serial random-order matcher of
/// [`random_cell_matching_with_skip`] — the netlist pipeline's
/// default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomCellMatching;

impl CellMatching for RandomCellMatching {
    fn matching(
        &self,
        nl: &Netlist,
        skip: &[bool],
        rng: &mut dyn RngCore,
    ) -> Vec<(VertexId, VertexId)> {
        random_cell_matching_with_skip(nl, skip, rng)
    }
}

/// Parallel maximal cell matching over contiguous cell ranges.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::{CellMatching, ParallelCellMatching};
/// use bisect_graph::hypergraph::{contract_cells, NetlistBuilder};
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(4);
/// b.add_net(&[0, 1]).unwrap();
/// b.add_net(&[2, 3]).unwrap();
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pairs = ParallelCellMatching::new()
///     .with_threads(2)
///     .matching(&nl, &[], &mut rng);
/// let c = contract_cells(&nl, &pairs);
/// assert_eq!(c.coarse().num_cells(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelCellMatching {
    /// Worker count; `None` defers to [`bisect_par::num_threads`].
    threads: Option<usize>,
}

impl ParallelCellMatching {
    /// Creates the matcher with the process-default thread count.
    pub fn new() -> ParallelCellMatching {
        ParallelCellMatching { threads: None }
    }

    /// Pins the worker (and range) count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> ParallelCellMatching {
        assert!(threads > 0, "thread count must be positive");
        self.threads = Some(threads);
        self
    }

    /// The worker count a call will use right now.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(bisect_par::num_threads)
    }
}

impl CellMatching for ParallelCellMatching {
    fn matching(
        &self,
        nl: &Netlist,
        skip: &[bool],
        rng: &mut dyn RngCore,
    ) -> Vec<(VertexId, VertexId)> {
        // Deterministic and rng-free: nothing to consume.
        let _ = rng;
        range_cell_matching(nl, skip, self.threads())
    }
}

/// The best unmatched partner of `c` by connectivity score, restricted
/// to cells passing `admit`. `score` is caller-owned scratch (cleared
/// here) so the per-cell walk allocates nothing in steady state; a
/// `BTreeMap` keeps the f64 accumulation and tie-break order
/// independent of hasher state, exactly as the serial matcher does.
fn best_partner(
    nl: &Netlist,
    c: VertexId,
    admit: &dyn Fn(VertexId) -> bool,
    score: &mut BTreeMap<VertexId, f64>,
) -> Option<VertexId> {
    score.clear();
    for &net in nl.nets_of(c) {
        let pins = nl.pins(net);
        if pins.len() < 2 {
            continue;
        }
        let contribution = nl.net_weight(net) as f64 / (pins.len() - 1) as f64;
        for &p in pins {
            if p != c && admit(p) {
                *score.entry(p).or_insert(0.0) += contribution;
            }
        }
    }
    score
        .iter()
        .max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.0.cmp(a.0))
        })
        .map(|(&partner, _)| partner)
}

/// The matching behind [`ParallelCellMatching`]: parallel in-range
/// greedy phase (ascending cell order, both endpoints inside one range
/// so disjoint ranges cannot conflict), then a serial ascending-order
/// cleanup for cells whose only partners cross a range boundary. Cells
/// flagged in `skip` are neither visited nor offered as partners.
/// Maximal among the unflagged cells by construction.
fn range_cell_matching(nl: &Netlist, skip: &[bool], threads: usize) -> Vec<(VertexId, VertexId)> {
    let n = nl.num_cells();
    if n == 0 {
        return Vec::new();
    }
    let skipped = |c: usize| skip.get(c).copied().unwrap_or(false);
    let t = threads.max(1).min(n);
    let chunk = n.div_ceil(t);
    let ranges = n.div_ceil(chunk);
    let local: Vec<Vec<(VertexId, VertexId)>> = bisect_par::par_map_with(t, ranges, |k| {
        let lo = k * chunk;
        let hi = ((k + 1) * chunk).min(n);
        let mut matched = vec![false; hi - lo];
        let mut pairs = Vec::new();
        let mut score = BTreeMap::new();
        for c in lo..hi {
            if matched[c - lo] || skipped(c) {
                continue;
            }
            let mate = best_partner(
                nl,
                c as VertexId,
                &|p| {
                    let pi = p as usize;
                    pi >= lo && pi < hi && !matched[pi - lo] && !skipped(pi)
                },
                &mut score,
            );
            if let Some(p) = mate {
                matched[c - lo] = true;
                matched[p as usize - lo] = true;
                pairs.push((c as VertexId, p));
            }
        }
        pairs
    });
    let mut taken = vec![false; n];
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for local_pairs in &local {
        for &(a, b) in local_pairs {
            taken[a as usize] = true;
            taken[b as usize] = true;
        }
        pairs.extend_from_slice(local_pairs);
    }
    let mut score = BTreeMap::new();
    for c in 0..n {
        if taken[c] || skipped(c) {
            continue;
        }
        let mate = best_partner(
            nl,
            c as VertexId,
            &|p| !taken[p as usize] && !skipped(p as usize),
            &mut score,
        );
        if let Some(p) = mate {
            taken[c] = true;
            taken[p as usize] = true;
            pairs.push((c as VertexId, p));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::super::testutil::two_clusters;
    use super::*;
    use bisect_graph::hypergraph::{contract_cells, NetlistBuilder};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize.min(cells));
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        b.build()
    }

    fn pairs_of(m: &dyn CellMatching, nl: &Netlist, skip: &[bool]) -> Vec<(VertexId, VertexId)> {
        m.matching(nl, skip, &mut StdRng::seed_from_u64(0))
    }

    /// A valid matching that matches no flagged cell and is maximal
    /// among the rest: no two unmatched, unflagged cells share a net.
    fn assert_maximal_skipping(nl: &Netlist, pairs: &[(VertexId, VertexId)], skip: &[bool]) {
        let skipped = |c: VertexId| skip.get(c as usize).copied().unwrap_or(false);
        let mut matched = vec![false; nl.num_cells()];
        for &(a, b) in pairs {
            assert_ne!(a, b, "self-pair");
            assert!(!matched[a as usize] && !matched[b as usize], "overlap");
            assert!(!skipped(a) && !skipped(b), "skipped cell in ({a}, {b})");
            assert!(
                nl.nets_of(a).iter().any(|n| nl.pins(*n).contains(&b)),
                "({a}, {b}) share no net"
            );
            matched[a as usize] = true;
            matched[b as usize] = true;
        }
        for n in nl.net_ids() {
            let free: Vec<VertexId> = nl
                .pins(n)
                .iter()
                .copied()
                .filter(|&p| !matched[p as usize] && !skipped(p))
                .collect();
            assert!(free.len() <= 1, "net {n} still joins free cells {free:?}");
        }
    }

    fn assert_maximal(nl: &Netlist, pairs: &[(VertexId, VertexId)]) {
        assert_maximal_skipping(nl, pairs, &[]);
    }

    #[test]
    fn matching_is_maximal_and_deterministic_per_thread_count() {
        for seed in [2u64, 9] {
            let nl = random_netlist(40, 55, seed);
            for threads in [1usize, 2, 4] {
                let m = ParallelCellMatching::new().with_threads(threads);
                let pairs = pairs_of(&m, &nl, &[]);
                assert_maximal(&nl, &pairs);
                assert_eq!(pairs, pairs_of(&m, &nl, &[]), "threads {threads}");
            }
        }
    }

    #[test]
    fn matching_contracts_and_preserves_weight() {
        let nl = random_netlist(30, 40, 5);
        let pairs = pairs_of(&ParallelCellMatching::new().with_threads(4), &nl, &[]);
        assert!(!pairs.is_empty());
        let c = contract_cells(&nl, &pairs);
        assert!(c.coarse().num_cells() < nl.num_cells());
        assert_eq!(c.coarse().total_cell_weight(), nl.total_cell_weight());
    }

    #[test]
    fn single_thread_matches_full_range_greedy() {
        // One worker sees the whole netlist, so the serial cleanup has
        // nothing to do and the result is the plain ascending greedy.
        let nl = two_clusters();
        let pairs = pairs_of(&ParallelCellMatching::new().with_threads(1), &nl, &[]);
        assert_maximal(&nl, &pairs);
    }

    #[test]
    fn handles_netless_and_empty_netlists() {
        let empty = NetlistBuilder::new(0).build();
        let m = ParallelCellMatching::new().with_threads(2);
        assert!(pairs_of(&m, &empty, &[]).is_empty());
        let netless = NetlistBuilder::new(5).build();
        assert!(pairs_of(&m, &netless, &[]).is_empty());
    }

    #[test]
    fn degenerate_nets_never_match() {
        let mut b = NetlistBuilder::new(4);
        b.add_net(&[]).unwrap();
        b.add_net(&[1]).unwrap();
        b.add_net(&[2, 3]).unwrap();
        let nl = b.build();
        let pairs = pairs_of(&ParallelCellMatching::new().with_threads(2), &nl, &[]);
        assert_eq!(pairs, vec![(2, 3)]);
    }

    #[test]
    fn skipped_cells_are_never_matched() {
        for seed in 0..12u64 {
            let nl = random_netlist(48, 70, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let skip: Vec<bool> = (0..nl.num_cells()).map(|_| rng.gen_bool(0.3)).collect();
            for threads in [1usize, 2, 3, 4] {
                let m = ParallelCellMatching::new().with_threads(threads);
                let pairs = pairs_of(&m, &nl, &skip);
                assert_maximal_skipping(&nl, &pairs, &skip);
                // A shorter mask leaves the missing cells unflagged.
                let short = &skip[..skip.len() / 2];
                assert_maximal_skipping(&nl, &pairs_of(&m, &nl, short), short);
            }
            assert_maximal_skipping(&nl, &pairs_of(&RandomCellMatching, &nl, &skip), &skip);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = ParallelCellMatching::new().with_threads(0);
    }
}
