//! Fiduccia-Mattheyses refinement on netlists — the 1982 algorithm in
//! its native habitat, now boundary-seeded and workspace-resident like
//! the graph-side [`crate::fm::BoundaryFm`].
//!
//! Each pass seeds the shared [`crate::gain::GainBuckets`] from the
//! incrementally tracked cell boundary ([`NetlistGainCache`]) instead
//! of all cells: an interior cell has only uncut nets, hence gain
//! `≤ 0`, and can only become worth moving after a net-mate moves — at
//! which point the update loop inserts it lazily. Those lazy inserts
//! would flood the whole connected component, so a pass on a projected
//! start ([`NetlistRefiner::refine_projected_counted`]) also ends once
//! `max(1024, cells/8)` consecutive moves have not improved its best
//! balanced prefix (the graph side's [`crate::fm::stall_limit`]): it
//! makes `O(best prefix + max(1024, cells/8))` tentative moves, each
//! costing its cell's pins, instead of `O(component)`. Passes from any
//! other start run to exhaustion.
//!
//! [`CompactedNetlistFm`] and [`MultilevelNetlistFm`] are thin presets
//! over [`super::NetlistPipeline`] (one compaction level / a full
//! V-cycle), kept as named types for the benchmark tables.

use bisect_graph::hypergraph::Netlist;
use rand::RngCore;

use crate::fm::stall_limit;
use crate::partition::Side;
use crate::pipeline::{CoarsenDepth, DEFAULT_COARSEST_SIZE};
use crate::workspace::Workspace;

use super::{fm_tolerances, gain_term, NetlistBisection, NetlistPipeline, NetlistRefiner};

/// Fiduccia-Mattheyses on netlists.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::NetlistFm;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(6);
/// for pins in [[0u32, 1, 2].as_slice(), &[3, 4, 5], &[2, 3]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = NetlistFm::new().bisect(&nl, &mut rng);
/// assert_eq!(p.cut(), 1); // only the 2-pin bridge net is cut
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistFm {
    max_passes: usize,
    full_scan: bool,
    /// Replaces [`stall_limit`] in tests (`usize::MAX` is the unbounded
    /// reference pass).
    #[cfg(test)]
    stall_override: Option<usize>,
}

impl Default for NetlistFm {
    fn default() -> NetlistFm {
        NetlistFm::new()
    }
}

impl NetlistFm {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> NetlistFm {
        NetlistFm {
            max_passes: 64,
            full_scan: false,
            #[cfg(test)]
            stall_override: None,
        }
    }

    /// Seeds every pass's gain buckets from *all* cells instead of the
    /// tracked cut boundary, and runs every pass to exhaustion, also on
    /// projected starts — the reference `O(cells + pins)` pass the
    /// boundary-localized default replaces. A full-scan pass can also
    /// chain zero- and negative-gain moves from interior cells, so
    /// results may differ from (not just match more slowly than) the
    /// boundary-seeded passes; the `netlist_fm_boundary` bench
    /// compares the two on near-converged re-refinement.
    pub fn with_full_scan(mut self) -> NetlistFm {
        self.full_scan = true;
        self
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> NetlistFm {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// The same refiner with its projected-start passes bounded by
    /// `limit` instead of [`stall_limit`].
    #[cfg(test)]
    pub(crate) fn with_stall_limit(mut self, limit: usize) -> NetlistFm {
        self.stall_override = Some(limit);
        self
    }

    /// The stall bound of a pass refining a projected start on `cells`
    /// cells.
    fn projected_limit(&self, cells: usize) -> usize {
        #[cfg(test)]
        if let Some(limit) = self.stall_override {
            return limit;
        }
        if self.full_scan {
            usize::MAX
        } else {
            stall_limit(cells)
        }
    }

    /// Bisects from a weight-balanced random start.
    pub fn bisect(&self, nl: &Netlist, rng: &mut dyn RngCore) -> NetlistBisection {
        let init = NetlistBisection::weight_balanced_random(nl, rng);
        self.refine(nl, init)
    }

    /// Improves `init` to a pass fixpoint.
    ///
    /// Convenience wrapper with a throwaway workspace; drivers that
    /// refine repeatedly use the [`NetlistRefiner`] entry points with a
    /// shared [`Workspace`].
    pub fn refine(&self, nl: &Netlist, mut init: NetlistBisection) -> NetlistBisection {
        let mut ws = Workspace::new();
        if nl.num_cells() >= 2 {
            ws.netlist_cache.init(nl, &init);
        }
        self.refine_with_cache(nl, &[], &mut init, &mut ws, usize::MAX);
        init
    }

    /// Runs one FM pass in place; returns the cut improvement (0 at a
    /// fixpoint).
    ///
    /// Convenience wrapper with a throwaway workspace.
    pub fn pass(&self, nl: &Netlist, p: &mut NetlistBisection) -> u64 {
        if nl.num_cells() < 2 {
            return 0;
        }
        let mut ws = Workspace::new();
        ws.netlist_cache.init(nl, p);
        let tols = prepare(nl, p, &mut ws);
        self.pass_with_cache(nl, &[], p, &mut ws, tols, usize::MAX)
    }

    /// Runs passes to a fixpoint assuming `ws.netlist_cache` is already
    /// exact for `(nl, p)`; leaves it exact for the refined `p`. Each
    /// pass ends after `limit` moves that do not improve its best
    /// prefix (`usize::MAX`: never). Returns the number of productive
    /// passes. Cells flagged in `fixed` never move.
    fn refine_with_cache(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        p: &mut NetlistBisection,
        ws: &mut Workspace,
        limit: usize,
    ) -> u64 {
        if nl.num_cells() < 2 {
            return 0;
        }
        let tols = prepare(nl, p, ws);
        let mut productive = 0u64;
        for _ in 0..self.max_passes {
            if self.pass_with_cache(nl, fixed, p, ws, tols, limit) == 0 {
                break;
            }
            productive += 1;
        }
        productive
    }

    /// One boundary-seeded pass, ended early once `limit` consecutive
    /// moves have not improved its best prefix. On entry and exit:
    /// `ws.netlist_cache` is exact for `(nl, p)`, `ws.netlist_work`
    /// mirrors `p`, `ws.fm_buckets` are empty, `ws.locked` is
    /// all-false, `ws.fm_touched` is empty; `ws.fm_moves` holds the
    /// pass's moves.
    // lint: allow(no-panic) — pass-loop expects: prepare() populated
    // netlist_work before any pass, `choice` is Some only when that bucket
    // had a peek, and the same Option is re-unwrapped at rollback.
    fn pass_with_cache(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        p: &mut NetlistBisection,
        ws: &mut Workspace,
        (base_tol, pass_tol): (u64, u64),
        limit: usize,
    ) -> u64 {
        let is_fixed = |c: u32| fixed.get(c as usize).copied().unwrap_or(false);
        let cache = &ws.netlist_cache;
        let buckets = &mut ws.fm_buckets;
        let touched = &mut ws.fm_touched;
        // Seed only the boundary: every cell with a cut net. Interior
        // cells have gain ≤ 0 and can only become candidates after a
        // net-mate moves; the update loop below inserts them then. The
        // full-scan reference seeds everything up front instead.
        if self.full_scan {
            for c in nl.cells() {
                if is_fixed(c) {
                    continue;
                }
                buckets[p.side(c).index()].insert(c, cache.gain(c));
                touched.push(c);
            }
        } else {
            for &c in cache.boundary() {
                if is_fixed(c) {
                    continue;
                }
                buckets[p.side(c).index()].insert(c, cache.gain(c));
                touched.push(c);
            }
        }
        let work = ws.netlist_work.as_mut().expect("netlist_work prepared");
        let locked = &mut ws.locked;
        ws.fm_moves.clear();
        let moves = &mut ws.fm_moves;
        let mut running = 0i64;
        // Best prefix that ends balanced with positive improvement:
        // (moves in it, its gain); the first of equal gains wins.
        let mut best = (0usize, 0i64);

        while moves.len() - best.0 < limit {
            // Identical candidate choice to the graph FM pass: best
            // gain within the pass tolerance, ties toward the heavier
            // side.
            let mut choice: Option<(i64, Side)> = None;
            for side in [Side::A, Side::B] {
                let Some((gain, c)) = buckets[side.index()].peek_best() else {
                    continue;
                };
                let w = nl.cell_weight(c) as i64;
                let imb = work.weight(Side::A) as i64 - work.weight(Side::B) as i64;
                let new_imb = if side == Side::A {
                    imb - 2 * w
                } else {
                    imb + 2 * w
                };
                if new_imb.unsigned_abs() > pass_tol {
                    continue;
                }
                let heavier = work.weight(side) >= work.weight(side.other());
                match choice {
                    Some((bg, bside)) => {
                        let better = gain > bg
                            || (gain == bg && heavier && work.weight(bside) < work.weight(side));
                        if better {
                            choice = Some((gain, side));
                        }
                    }
                    None => choice = Some((gain, side)),
                }
            }
            let Some((gain, side)) = choice else { break };
            let (_, c) = buckets[side.index()].pop_best().expect("peeked nonempty");
            locked[c as usize] = true;

            // Gain updates before the virtual move: per incident net
            // the per-pin deltas depend only on the pin counts, so
            // compute them once per side and walk the pins only when
            // some delta is nonzero.
            let s = side.index();
            for &net in nl.nets_of(c) {
                let counts = work.pins_on(net);
                let (my, other) = (counts[s], counts[1 - s]);
                let w = nl.net_weight(net) as i64;
                let ds = gain_term(my - 1, other + 1, w) - gain_term(my, other, w);
                let dt = gain_term(other + 1, my - 1, w) - gain_term(other, my, w);
                if ds == 0 && dt == 0 {
                    continue;
                }
                for &q in nl.pins(net) {
                    if q == c || locked[q as usize] || is_fixed(q) {
                        continue;
                    }
                    let delta = if work.side(q) == side { ds } else { dt };
                    if delta == 0 {
                        continue;
                    }
                    let b = &mut buckets[work.side(q).index()];
                    if b.contains(q) {
                        let cur = b.gain_of(q);
                        b.update(q, cur + delta);
                    } else {
                        // q had no moved net-mate yet (only pops remove
                        // bucket entries, and pops lock), so its
                        // virtual gain still equals the cached real
                        // gain.
                        b.insert(q, cache.gain(q) + delta);
                        touched.push(q);
                    }
                }
            }
            work.move_cell(nl, c);
            running += gain;
            moves.push(c);
            if running > best.1 && work.weight_imbalance() <= base_tol {
                best = (moves.len(), running);
            }
        }

        let committed = best.0;
        let before = p.cut();
        let cache = &mut ws.netlist_cache;
        for &c in &moves[..committed] {
            // record_move wants the pre-move bisection.
            cache.record_move(nl, p, c);
            p.move_cell(nl, c);
        }
        // Rewind the uncommitted virtual tail so netlist_work mirrors
        // `p` again. Each cell moved at most once per pass, so moving
        // it back restores its side regardless of order.
        let work = ws.netlist_work.as_mut().expect("netlist_work prepared");
        for &c in &moves[committed..] {
            work.move_cell(nl, c);
        }
        // O(touched) cleanup instead of O(cells) resets.
        for &c in ws.fm_touched.iter() {
            for b in ws.fm_buckets.iter_mut() {
                if b.contains(c) {
                    b.remove(c);
                }
            }
            ws.locked[c as usize] = false;
        }
        ws.fm_touched.clear();
        debug_assert_eq!(p.cut(), p.recompute_cut(nl));
        debug_assert!(before >= p.cut());
        before - p.cut()
    }
}

/// Per-refine O(cells) setup: tolerances, bucket reset, work mirror,
/// locked/touched clearing. Requires `ws.netlist_cache` exact for
/// `(nl, p)`.
fn prepare(nl: &Netlist, p: &NetlistBisection, ws: &mut Workspace) -> (u64, u64) {
    let n = nl.num_cells();
    let (base_tol, pass_tol) = fm_tolerances(nl);
    // A cell's gain is bounded by its weighted net degree: each
    // incident net contributes a value in [−w(net), w(net)].
    let max_gain = nl
        .cells()
        .map(|c| {
            nl.nets_of(c)
                .iter()
                .map(|&net| nl.net_weight(net))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
        .min(i64::MAX as u64) as i64;
    for b in ws.fm_buckets.iter_mut() {
        b.reset(n, max_gain);
    }
    if let Some(w) = ws.netlist_work.as_mut() {
        w.copy_from(p);
    } else {
        ws.netlist_work = Some(p.clone());
    }
    ws.locked.clear();
    ws.locked.resize(n, false);
    ws.fm_touched.clear();
    (base_tol, pass_tol)
}

impl NetlistRefiner for NetlistFm {
    fn name(&self) -> String {
        "NetFM".into()
    }

    fn refine_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        mut init: NetlistBisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        if nl.num_cells() >= 2 {
            ws.netlist_cache.init(nl, &init);
        }
        // An arbitrary start may need long hill-crossing runs (see
        // `crate::fm::stall_limit`).
        let passes = self.refine_with_cache(nl, fixed, &mut init, ws, usize::MAX);
        (init, passes)
    }

    fn wants_projected_cache(&self) -> bool {
        true
    }

    fn refine_projected_counted(
        &self,
        nl: &Netlist,
        fixed: &[bool],
        mut init: NetlistBisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        let limit = self.projected_limit(nl.num_cells());
        let passes = self.refine_with_cache(nl, fixed, &mut init, ws, limit);
        (init, passes)
    }
}

/// The compaction heuristic (§V) in its netlist form: match cells along
/// nets, contract once, run [`NetlistFm`] on the coarse netlist,
/// project, rebalance, and refine — the paper's contribution
/// transplanted to the hypergraph objective. A named preset over
/// [`NetlistPipeline`] with [`CoarsenDepth::Levels`]`(1)`.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::CompactedNetlistFm;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(6);
/// for pins in [[0u32, 1, 2].as_slice(), &[3, 4, 5], &[2, 3]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = CompactedNetlistFm::new().bisect(&nl, &mut rng);
/// assert_eq!(p.cut(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactedNetlistFm {
    inner: NetlistFm,
}

impl CompactedNetlistFm {
    /// One level of netlist compaction around [`NetlistFm`].
    pub fn new() -> CompactedNetlistFm {
        CompactedNetlistFm {
            inner: NetlistFm::new(),
        }
    }

    /// Bisects `nl` by compaction.
    pub fn bisect(&self, nl: &Netlist, rng: &mut dyn RngCore) -> NetlistBisection {
        NetlistPipeline::new(CoarsenDepth::Levels(1), self.inner.clone(), "NetCFM")
            // lint: allow(no-panic) — Levels(1) always validates
            .expect("Levels(1) is a valid depth")
            .bisect(nl, rng)
    }
}

/// Multilevel netlist bisection: coarsen by repeated cell matchings,
/// bisect the coarsest netlist, then project and FM-refine level by
/// level — hMETIS avant la lettre, completing the parallel with the
/// graph-side multilevel pipeline. A named preset over
/// [`NetlistPipeline`] with [`CoarsenDepth::ToSize`].
///
/// # Example
///
/// ```
/// use bisect_core::netlist::MultilevelNetlistFm;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(8);
/// for pins in [[0u32, 1, 2, 3].as_slice(), &[4, 5, 6, 7], &[3, 4]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ml = MultilevelNetlistFm::new().with_coarsest_size(4);
/// let p = ml.bisect(&nl, &mut rng);
/// assert_eq!(p.cut(), 1); // the clusters contract; only the bridge is cut
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultilevelNetlistFm {
    inner: NetlistFm,
    coarsest_size: usize,
}

impl Default for MultilevelNetlistFm {
    fn default() -> MultilevelNetlistFm {
        MultilevelNetlistFm::new()
    }
}

impl MultilevelNetlistFm {
    /// Multilevel FM coarsening down to at most
    /// [`DEFAULT_COARSEST_SIZE`] cells.
    pub fn new() -> MultilevelNetlistFm {
        MultilevelNetlistFm {
            inner: NetlistFm::new(),
            coarsest_size: DEFAULT_COARSEST_SIZE,
        }
    }

    /// Sets the size at which coarsening stops.
    ///
    /// # Panics
    ///
    /// Panics if `coarsest_size < 2`.
    pub fn with_coarsest_size(mut self, coarsest_size: usize) -> MultilevelNetlistFm {
        assert!(coarsest_size >= 2, "coarsest size must be at least 2");
        self.coarsest_size = coarsest_size;
        self
    }

    /// Bisects `nl` with a full V-cycle.
    pub fn bisect(&self, nl: &Netlist, rng: &mut dyn RngCore) -> NetlistBisection {
        NetlistPipeline::new(
            CoarsenDepth::ToSize(self.coarsest_size),
            self.inner.clone(),
            "NetMLFM",
        )
        // lint: allow(no-panic) — coarsest_size ≥ 2 is enforced at construction
        .expect("coarsest size validated at construction")
        .bisect(nl, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{brute_force_cut, two_clusters, weighted_coarse_netlist};
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;
    use bisect_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fm_finds_the_bridge_cut() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(3);
        let p = NetlistFm::new().bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn fm_matches_brute_force_on_small_netlists() {
        let mut rng = StdRng::seed_from_u64(9);
        for trial in 0..20 {
            // Random netlist on 10 cells with 8 nets of 2-4 pins.
            let mut b = NetlistBuilder::new(10);
            for _ in 0..8 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (0..10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
            let nl = b.build();
            let optimal = brute_force_cut(&nl);
            let mut best = u64::MAX;
            for seed in 0..8 {
                let p = NetlistFm::new().bisect(&nl, &mut StdRng::seed_from_u64(seed));
                assert!(p.cut() >= optimal, "trial {trial}: below optimum");
                best = best.min(p.cut());
            }
            assert!(
                best <= optimal + 1,
                "trial {trial}: FM best {best} far from optimum {optimal}"
            );
        }
    }

    #[test]
    fn full_scan_variant_refines_validly() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = NetlistBuilder::new(24);
        for _ in 0..40 {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..24).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        let nl = b.build();
        for seed in 0..6 {
            let init = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            for fm in [NetlistFm::new(), NetlistFm::new().with_full_scan()] {
                let mut ws = Workspace::new();
                let (p, _) = fm.refine_counted(
                    &nl,
                    &[],
                    init.clone(),
                    &mut StdRng::seed_from_u64(0),
                    &mut ws,
                );
                assert!(p.cut() <= init.cut());
                assert!(p.is_balanced(&nl));
                assert_eq!(p.cut(), p.recompute_cut(&nl));
                // Repeat runs are bit-identical for both seedings.
                let mut ws2 = Workspace::new();
                let (q, _) = fm.refine_counted(
                    &nl,
                    &[],
                    init.clone(),
                    &mut StdRng::seed_from_u64(0),
                    &mut ws2,
                );
                assert_eq!(p.sides(), q.sides());
            }
        }
    }

    #[test]
    fn pass_never_increases_cut() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        for seed in 0..10 {
            let mut p = NetlistBisection::random_balanced(&nl, &mut StdRng::seed_from_u64(seed));
            let before = p.cut();
            let improvement = fm.pass(&nl, &mut p);
            assert_eq!(before - p.cut(), improvement);
            assert!(p.is_balanced(&nl));
        }
    }

    #[test]
    fn refine_leaves_cache_exact() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = NetlistBisection::random_balanced(&nl, &mut rng);
            let (refined, _) = fm.refine_counted(&nl, &[], init, &mut rng, &mut ws);
            for c in nl.cells() {
                assert_eq!(
                    ws.netlist_cache.gain(c),
                    refined.gain(&nl, c),
                    "seed {seed}, cell {c}"
                );
            }
        }
    }

    #[test]
    fn refine_respects_fixed_cells() {
        let nl = two_clusters();
        let fm = NetlistFm::new();
        let mut ws = Workspace::new();
        // Adversarial start: the fixed cells open on the "wrong" sides.
        let init =
            NetlistBisection::from_sides(&nl, vec![false, true, false, true, false, true]).unwrap();
        let fixed = vec![true, false, false, false, false, true];
        let mut rng = StdRng::seed_from_u64(1);
        let (refined, _) = fm.refine_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws);
        assert_eq!(refined.side(0), init.side(0));
        assert_eq!(refined.side(5), init.side(5));
        assert!(refined.cut() <= init.cut());
    }

    /// Replays `moves` on `start`: the first of the largest positive
    /// cut improvements among the prefixes that end within `base_tol`,
    /// as (moves in it, its improvement) — `(0, 0)` if none improves.
    fn best_explored_prefix(
        nl: &Netlist,
        start: &NetlistBisection,
        moves: &[VertexId],
        base_tol: u64,
    ) -> (usize, i64) {
        let mut q = start.clone();
        let mut best = (0, 0);
        for (i, &c) in moves.iter().enumerate() {
            q.move_cell(nl, c);
            let gain = start.cut() as i64 - q.cut() as i64;
            if gain > best.1 && q.weight_imbalance() <= base_tol {
                best = (i + 1, gain);
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Passes bounded to a small stall limit, run to a fixpoint on
        /// one workspace with some cells fixed: each explores a prefix
        /// of the unbounded reference pass from the same state, never
        /// moves a fixed cell, stops only when it runs dry or `limit`
        /// moves past its best prefix, commits exactly the best
        /// balanced positive prefix of what it explored, never raises
        /// the cut, and leaves the gain cache exact.
        #[test]
        fn bounded_pass_commits_the_best_explored_prefix(
            cells in 4usize..120,
            nets_per_cell in 1usize..3,
            levels in 0usize..3,
            netlist_seed in 0u64..10_000,
            start_seed in 0u64..10_000,
            fixed_one_in in 0usize..5,
            limit in 1usize..16,
        ) {
            let nl = weighted_coarse_netlist(cells, cells * nets_per_cell, levels, netlist_seed);
            let mut rng = StdRng::seed_from_u64(start_seed);
            let fixed: Vec<bool> = nl
                .cells()
                .map(|_| fixed_one_in > 0 && rng.gen_range(0..fixed_one_in + 1) == 0)
                .collect();
            let mut p = NetlistBisection::weight_balanced_random(&nl, &mut rng);
            let fm = NetlistFm::new();
            let mut ws = Workspace::new();
            ws.netlist_cache.init(&nl, &p);
            let tols = prepare(&nl, &p, &mut ws);
            let base_tol = tols.0;
            let mut ref_ws = Workspace::new();
            for _ in 0..64 {
                let start = p.clone();
                let mut reference = start.clone();
                // The cache's boundary order (the bucket seeding order)
                // follows its move history, so the reference starts
                // from a copy.
                ref_ws.netlist_cache = ws.netlist_cache.clone();
                prepare(&nl, &reference, &mut ref_ws);
                let ref_gain = fm.pass_with_cache(
                    &nl, &fixed, &mut reference, &mut ref_ws, tols, usize::MAX,
                );
                let gain =
                    fm.pass_with_cache(&nl, &fixed, &mut p, &mut ws, tols, limit);

                let moves = &ws.fm_moves;
                let ref_moves = &ref_ws.fm_moves;
                proptest::prop_assert!(ref_moves.starts_with(moves));
                proptest::prop_assert!(moves.iter().all(|&c| !fixed[c as usize]));
                let (k, best_gain) = best_explored_prefix(&nl, &start, moves, base_tol);
                proptest::prop_assert!(moves.len() - k <= limit);
                if moves.len() < ref_moves.len() {
                    proptest::prop_assert_eq!(moves.len() - k, limit);
                }
                proptest::prop_assert_eq!(gain, best_gain as u64);
                let mut expected = start.clone();
                for &c in &moves[..k] {
                    expected.move_cell(&nl, c);
                }
                proptest::prop_assert_eq!(p.sides(), expected.sides());
                proptest::prop_assert_eq!(p.cut(), p.recompute_cut(&nl));
                proptest::prop_assert!(gain == 0 || p.weight_imbalance() <= base_tol);
                for c in nl.cells() {
                    proptest::prop_assert_eq!(ws.netlist_cache.gain(c), p.gain(&nl, c));
                }
                // Having explored the reference's best prefix, the
                // bounded pass commits the same one.
                let (ref_k, _) = best_explored_prefix(&nl, &start, ref_moves, base_tol);
                if ref_k <= moves.len() {
                    proptest::prop_assert_eq!(p.sides(), reference.sides());
                    proptest::prop_assert_eq!(gain, ref_gain);
                }
                if gain == 0 {
                    break;
                }
            }
        }

        /// A limit of at least the cell count never ends a pass early:
        /// refining a projected start is bit-identical to the unbounded
        /// reference, fixed cells included.
        #[test]
        fn limit_of_n_matches_the_unbounded_reference(
            cells in 2usize..120,
            nets_per_cell in 1usize..3,
            levels in 0usize..3,
            netlist_seed in 0u64..10_000,
            start_seed in 0u64..10_000,
            fixed_one_in in 0usize..5,
            extra in 0usize..3,
        ) {
            let nl = weighted_coarse_netlist(cells, cells * nets_per_cell, levels, netlist_seed);
            let mut rng = StdRng::seed_from_u64(start_seed);
            let fixed: Vec<bool> = nl
                .cells()
                .map(|_| fixed_one_in > 0 && rng.gen_range(0..fixed_one_in + 1) == 0)
                .collect();
            let init = NetlistBisection::weight_balanced_random(&nl, &mut rng);
            let mut run = |fm: NetlistFm| {
                let mut ws = Workspace::new();
                ws.netlist_cache.init(&nl, &init);
                fm.refine_projected_counted(&nl, &fixed, init.clone(), &mut rng, &mut ws)
            };
            let bounded = run(NetlistFm::new().with_stall_limit(nl.num_cells() + extra));
            let reference = run(NetlistFm::new().with_stall_limit(usize::MAX));
            proptest::prop_assert_eq!(bounded.0.sides(), reference.0.sides());
            proptest::prop_assert_eq!(bounded.1, reference.1);
        }
    }

    #[test]
    fn bounded_multilevel_matches_the_unbounded_reference_above_the_floor() {
        // Finest level 2·10^4 cells of a locality-clustered Rent
        // netlist: its passes are bounded by 2 500 moves, yet the
        // V-cycle commits the same prefixes as unbounded passes.
        use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
        use bisect_graph::hypergraph::{bfs_cell_order, permute_cells};
        let params = RentNetlistParams::new(20_000, 28_000, 8, 1.8, 0.02).unwrap();
        let nl = sample_streamed(&mut StdRng::seed_from_u64(0), &params);
        let nlr = permute_cells(&nl, &bfs_cell_order(&nl));
        let mut ws = Workspace::new();
        let mut run = |fm: NetlistFm| {
            NetlistPipeline::new(CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE), fm, "NetMLFM")
                .unwrap()
                .bisect_counted(&nlr, &mut StdRng::seed_from_u64(7), &mut ws)
        };
        let (bounded, bounded_passes) = run(NetlistFm::new());
        let (reference, reference_passes) = run(NetlistFm::new().with_stall_limit(usize::MAX));
        assert_eq!(bounded.cut(), reference.cut());
        assert_eq!(bounded_passes, reference_passes);
        assert_eq!(bounded.sides(), reference.sides());
    }

    #[test]
    fn tiny_netlists() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..3usize {
            let nl = NetlistBuilder::new(n).build();
            let p = NetlistFm::new().bisect(&nl, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn weighted_nets_and_cells() {
        let mut b = NetlistBuilder::new(4);
        b.add_weighted_net(&[0, 1], 10).unwrap();
        b.add_weighted_net(&[1, 2], 1).unwrap();
        b.add_weighted_net(&[2, 3], 10).unwrap();
        let nl = b.build();
        let mut rng = StdRng::seed_from_u64(2);
        let p = NetlistFm::new().bisect(&nl, &mut rng);
        // Optimal: cut the middle weight-1 net.
        assert_eq!(p.cut(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = NetlistFm::new().with_max_passes(0);
    }

    #[test]
    fn compacted_fm_finds_the_bridge() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(4);
        let p = CompactedNetlistFm::new().bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn compacted_fm_on_netless_cells() {
        let nl = NetlistBuilder::new(8).build();
        let mut rng = StdRng::seed_from_u64(4);
        let p = CompactedNetlistFm::new().bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 0);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn compacted_fm_never_beats_brute_force() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let mut b = NetlistBuilder::new(10);
            for _ in 0..8 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (0..10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
            let nl = b.build();
            let optimal = brute_force_cut(&nl);
            let p = CompactedNetlistFm::new().bisect(&nl, &mut StdRng::seed_from_u64(1));
            assert!(p.cut() >= optimal);
            assert!(p.is_balanced(&nl));
        }
    }

    #[test]
    fn multilevel_fm_finds_the_bridge() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(5);
        let p = MultilevelNetlistFm::new()
            .with_coarsest_size(3)
            .bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
        assert!(p.is_balanced(&nl));
    }

    #[test]
    fn multilevel_fm_valid_on_random_netlists() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let mut b = NetlistBuilder::new(60);
            for _ in 0..80 {
                let size = rng.gen_range(2..=5usize);
                let mut pins: Vec<u32> = (0..60).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
            let nl = b.build();
            let p = MultilevelNetlistFm::new().bisect(&nl, &mut StdRng::seed_from_u64(3));
            assert!(p.is_balanced(&nl));
            assert_eq!(p.cut(), p.recompute_cut(&nl));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn multilevel_rejects_tiny_coarsest() {
        let _ = MultilevelNetlistFm::new().with_coarsest_size(1);
    }

    #[test]
    fn compacted_fm_competitive_on_clusters() {
        // Larger clustered netlist: compacted FM should match plain FM
        // or better on most seeds.
        let mut b = NetlistBuilder::new(40);
        let mut rng = StdRng::seed_from_u64(8);
        for cluster in 0..4 {
            let base = cluster * 10;
            for _ in 0..12 {
                let size = rng.gen_range(2..=4usize);
                let mut pins: Vec<u32> = (base..base + 10).collect();
                pins.shuffle(&mut rng);
                b.add_net(&pins[..size]).unwrap();
            }
        }
        b.add_net(&[9, 10]).unwrap();
        b.add_net(&[19, 20]).unwrap();
        b.add_net(&[29, 30]).unwrap();
        let nl = b.build();
        let mut fm_total = 0u64;
        let mut cfm_total = 0u64;
        for seed in 0..5 {
            fm_total += NetlistFm::new()
                .bisect(&nl, &mut StdRng::seed_from_u64(seed))
                .cut();
            cfm_total += CompactedNetlistFm::new()
                .bisect(&nl, &mut StdRng::seed_from_u64(seed))
                .cut();
        }
        assert!(
            cfm_total <= fm_total + 2,
            "compacted FM ({cfm_total}) should be competitive with FM ({fm_total})"
        );
    }
}
