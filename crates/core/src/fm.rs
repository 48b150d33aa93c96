//! The Fiduccia-Mattheyses (FM) refinement heuristic (DAC 1982) — the
//! linear-time successor of Kernighan-Lin, included as an extension and
//! ablation baseline (`ablate-*` benches): it moves *single* vertices
//! under a balance constraint instead of swapping pairs, and keeps
//! vertices in constant-time *gain buckets* instead of re-scanning
//! pairs.
//!
//! One pass: every vertex starts unlocked with its current gain. At
//! each step the best-gain unlocked vertex whose move keeps the
//! imbalance within tolerance is (virtually) moved and locked, the
//! running cut change is recorded, and its neighbors' gains are
//! updated. After all moves, the best balanced prefix is applied if it
//! improves the cut. Passes repeat to a fixpoint.
//!
//! [`BoundaryFm`] is the boundary-localized variant: instead of
//! inserting all `V` vertices into the gain buckets each pass, it seeds
//! them with only the current *boundary* (vertices with a cut edge,
//! tracked incrementally by [`crate::gain_cache::GainCache`]) and pulls
//! interior vertices in lazily as moves reach them. It also implements
//! the projected-cache protocol
//! ([`crate::bisector::Refiner::refine_projected_counted`]) so
//! uncoarsening ladders never rebuild its gain state per level. Left
//! alone, the lazy pulls flood the whole connected component even
//! though a projected start needs only a short prefix, so a pass on a
//! projected start also stops once `max(1024, V/8)` consecutive moves
//! have not improved its best balanced prefix (the classic FM early
//! exit, [`stall_limit`]): it makes `O(best prefix + max(1024, V/8))`
//! tentative moves instead of `O(component)`, which is the multilevel
//! win once coarsening has shrunk the cut region to a sliver of the
//! graph. Passes from any other start run to exhaustion, since they
//! may need long hill-crossing runs.

use bisect_graph::Graph;
use rand::RngCore;

use crate::bisector::{Bisector, Refiner};
use crate::partition::{fm_tolerances, Bisection, Side};
use crate::seed;
use crate::workspace::Workspace;

/// The fewest consecutive non-improving moves after which a bounded
/// pass gives up: any level of at most this many vertices (or cells)
/// runs its passes to exhaustion.
const STALL_FLOOR: usize = 1024;

/// The stall bound of a boundary-FM pass refining a projected start on
/// a level of `n` vertices (or cells): the pass ends once
/// `max(1024, n/8)` consecutive moves have not improved its best
/// balanced prefix. Sized from the largest gap measured between
/// successive improvements of such passes on the benchmark ladders —
/// 3.3% of `n` at 2.5·10^5 vertices, 6.8% at 10^5 cells, 9.5% at
/// 1.5·10^4 — so the bound cuts the pass short without moving its
/// committed prefix there. Random starts are not bounded: their gaps
/// reach 40% of `n` at the coarsest level of a 10^5-cell ladder.
pub(crate) fn stall_limit(n: usize) -> usize {
    (n / 8).max(STALL_FLOOR)
}

/// The FM bisection algorithm.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, fm::FiducciaMattheyses};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiducciaMattheyses {
    max_passes: usize,
}

impl Default for FiducciaMattheyses {
    fn default() -> FiducciaMattheyses {
        FiducciaMattheyses::new()
    }
}

impl FiducciaMattheyses {
    /// FM with passes run to a fixpoint (bounded by a safety cap).
    pub fn new() -> FiducciaMattheyses {
        FiducciaMattheyses { max_passes: 64 }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> FiducciaMattheyses {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// Runs one FM pass in place; returns the cut improvement (0 at a
    /// fixpoint). The bisection must be balanced on entry and stays
    /// balanced.
    ///
    /// Convenience wrapper over [`FiducciaMattheyses::pass_in`] with a
    /// throwaway workspace.
    pub fn pass(&self, g: &Graph, p: &mut Bisection) -> u64 {
        self.pass_in(g, p, &mut Workspace::new())
    }

    /// As [`FiducciaMattheyses::pass`], drawing the gain buckets, the
    /// working bisection, and every per-move array from `ws` — no heap
    /// allocations once the workspace is warm.
    // lint: allow(no-panic) — pass-loop expects: both prepare branches leave
    // fm_work populated, and `choice` is Some only when that bucket had a
    // peek.
    pub fn pass_in(&self, g: &Graph, p: &mut Bisection, ws: &mut Workspace) -> u64 {
        let n = g.num_vertices();
        if n < 2 {
            return 0;
        }
        let (base_tol, pass_tol) = fm_tolerances(g);

        let max_wdeg = g
            .vertices()
            .map(|v| g.weighted_degree(v))
            .max()
            .unwrap_or(0)
            .min(i64::MAX as u64) as i64;
        // Initial gains come from the shared cache arena (one O(V + E)
        // sweep, same integers SA maintains incrementally).
        ws.gain_cache.init(g, p);
        let buckets = &mut ws.fm_buckets;
        for b in buckets.iter_mut() {
            b.reset(n, max_wdeg);
        }
        for v in g.vertices() {
            buckets[p.side(v).index()].insert(v, ws.gain_cache.gain(v));
        }

        if let Some(w) = ws.fm_work.as_mut() {
            w.copy_from(p);
        } else {
            // lint: allow(zero-alloc) — one-time workspace warm-up, recycled afterwards
            ws.fm_work = Some(p.clone());
        }
        let work = ws.fm_work.as_mut().expect("just populated");
        ws.locked.clear();
        ws.locked.resize(n, false);
        let locked = &mut ws.locked;
        ws.fm_moves.clear();
        let moves = &mut ws.fm_moves;
        let mut running = 0i64;
        // Best prefix that ends balanced with positive improvement:
        // (moves in it, its gain); the first of equal gains wins.
        let mut best = (0usize, 0i64);

        for _ in 0..n {
            // Candidate per side: its best-gain unlocked vertex, kept
            // only if moving it respects the pass tolerance.
            let mut choice: Option<(i64, Side)> = None;
            for side in [Side::A, Side::B] {
                let Some((gain, v)) = buckets[side.index()].peek_best() else {
                    continue;
                };
                let w = g.vertex_weight(v) as i64;
                let imb = work.weight(Side::A) as i64 - work.weight(Side::B) as i64;
                let new_imb = if side == Side::A {
                    imb - 2 * w
                } else {
                    imb + 2 * w
                };
                if new_imb.unsigned_abs() > pass_tol {
                    continue;
                }
                // Prefer higher gain; tie-break toward the heavier side
                // (drives the state back toward balance).
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
            let (_, v) = buckets[side.index()].pop_best().expect("peeked nonempty");
            locked[v as usize] = true;
            work.move_vertex(g, v);
            running += gain;
            moves.push(v);
            if running > best.1 && work.weight_imbalance() <= base_tol {
                best = (moves.len(), running);
            }

            for (u, w) in g.neighbors_weighted(v) {
                if locked[u as usize] {
                    continue;
                }
                // v left `side`: for u still on `side` the edge became
                // external (+2w); for u on the other side it became
                // internal (−2w).
                let delta = if work.side(u) == side {
                    2 * w as i64
                } else {
                    -2 * (w as i64)
                };
                let b = &mut buckets[work.side(u).index()];
                let cur = b.gain_of(u);
                b.update(u, cur + delta);
            }
        }

        let (committed, best_gain) = best;
        if committed == 0 {
            return 0;
        }
        let before = p.cut();
        for &v in &moves[..committed] {
            p.move_vertex(g, v);
        }
        debug_assert_eq!(p.cut(), p.recompute_cut(g));
        debug_assert_eq!(before - p.cut(), best_gain as u64);
        before - p.cut()
    }
}

impl Bisector for FiducciaMattheyses {
    fn name(&self) -> String {
        "FM".into()
    }

    fn bisect(&self, g: &Graph, rng: &mut dyn RngCore) -> Bisection {
        self.bisect_in(g, rng, &mut Workspace::new())
    }

    fn bisect_in(&self, g: &Graph, rng: &mut dyn RngCore, ws: &mut Workspace) -> Bisection {
        self.bisect_counted(g, rng, ws).0
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = seed::random_balanced(g, rng);
        self.refine_counted(g, init, rng, ws)
    }
}

impl Refiner for FiducciaMattheyses {
    fn refine(&self, g: &Graph, init: Bisection, rng: &mut dyn RngCore) -> Bisection {
        self.refine_counted(g, init, rng, &mut Workspace::new()).0
    }

    fn refine_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let mut productive = 0u64;
        for _ in 0..self.max_passes {
            if self.pass_in(g, &mut init, ws) == 0 {
                break;
            }
            productive += 1;
        }
        (init, productive)
    }
}

/// Boundary-localized FM: identical move discipline to
/// [`FiducciaMattheyses`] (best-gain single moves under the pass
/// tolerance, best balanced prefix, passes to a fixpoint), but each
/// pass seeds the gain buckets from the incrementally tracked cut
/// boundary instead of all of `V`, and cleans up only what it touched;
/// on a projected start ([`Refiner::refine_projected_counted`]) a pass
/// also ends after `max(1024, V/8)` consecutive moves that do not
/// improve its best prefix. A separately tested refinement mode — not
/// bit-identical to the pinned full-scan FM (it visits candidates in
/// boundary order), but deterministic and subject to the same
/// invariants.
///
/// # Example
///
/// ```
/// use bisect_core::{bisector::Bisector, fm::BoundaryFm};
/// use bisect_gen::special;
/// use rand::SeedableRng;
///
/// let g = special::grid(8, 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = BoundaryFm::new().bisect(&g, &mut rng);
/// assert!(p.is_balanced(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryFm {
    max_passes: usize,
    /// Replaces [`stall_limit`] in tests (`usize::MAX` is the unbounded
    /// reference pass).
    #[cfg(test)]
    stall_override: Option<usize>,
}

impl Default for BoundaryFm {
    fn default() -> BoundaryFm {
        BoundaryFm::new()
    }
}

impl BoundaryFm {
    /// Boundary FM with passes run to a fixpoint (bounded by a safety
    /// cap).
    pub fn new() -> BoundaryFm {
        BoundaryFm {
            max_passes: 64,
            #[cfg(test)]
            stall_override: None,
        }
    }

    /// Limits the number of passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0`.
    pub fn with_max_passes(mut self, max_passes: usize) -> BoundaryFm {
        assert!(max_passes > 0, "at least one pass is required");
        self.max_passes = max_passes;
        self
    }

    /// The same refiner with its projected-start passes bounded by
    /// `limit` instead of [`stall_limit`].
    #[cfg(test)]
    pub(crate) fn with_stall_limit(mut self, limit: usize) -> BoundaryFm {
        self.stall_override = Some(limit);
        self
    }

    /// The stall bound of a pass refining a projected start on `n`
    /// vertices.
    fn projected_limit(&self, n: usize) -> usize {
        #[cfg(test)]
        if let Some(limit) = self.stall_override {
            return limit;
        }
        stall_limit(n)
    }

    /// Runs passes to a fixpoint assuming `ws.gain_cache` is already
    /// exact for `(g, p)`; leaves it exact for the refined `p`. Each
    /// pass ends after `limit` moves that do not improve its best
    /// prefix (`usize::MAX`: never). Returns the number of productive
    /// passes.
    fn refine_with_cache(
        &self,
        g: &Graph,
        p: &mut Bisection,
        ws: &mut Workspace,
        limit: usize,
    ) -> u64 {
        if g.num_vertices() < 2 {
            return 0;
        }
        let tols = prepare(g, p, ws);
        let mut productive = 0u64;
        for _ in 0..self.max_passes {
            if self.pass_with_cache(g, p, ws, tols, limit) == 0 {
                break;
            }
            productive += 1;
        }
        productive
    }

    /// One boundary-seeded pass, ended early once `limit` consecutive
    /// moves have not improved its best prefix. On entry and exit:
    /// `ws.gain_cache` is exact for `(g, p)`, `ws.fm_work` mirrors `p`,
    /// `ws.fm_buckets` are empty, `ws.locked` is all-false,
    /// `ws.fm_touched` is empty; `ws.fm_moves` holds the pass's moves.
    // lint: allow(no-panic) — pass-loop expects: refine_with_cache populated
    // fm_work before any pass, and `choice` is Some only when that bucket
    // had a peek.
    fn pass_with_cache(
        &self,
        g: &Graph,
        p: &mut Bisection,
        ws: &mut Workspace,
        (base_tol, pass_tol): (u64, u64),
        limit: usize,
    ) -> u64 {
        let cache = &ws.gain_cache;
        let buckets = &mut ws.fm_buckets;
        let touched = &mut ws.fm_touched;
        // Seed only the boundary: every vertex with a cut edge. An
        // interior vertex can only become worth moving after a neighbor
        // moves, and the update loop below inserts it the moment that
        // happens, so no candidate is ever missed.
        for &v in cache.boundary() {
            buckets[p.side(v).index()].insert(v, cache.gain(v));
            touched.push(v);
        }
        let work = ws.fm_work.as_mut().expect("fm_work prepared");
        let locked = &mut ws.locked;
        ws.fm_moves.clear();
        let moves = &mut ws.fm_moves;
        let mut running = 0i64;
        // Best prefix that ends balanced with positive improvement:
        // (moves in it, its gain); the first of equal gains wins.
        let mut best = (0usize, 0i64);

        while moves.len() - best.0 < limit {
            // Identical candidate choice to the full-scan pass: best
            // gain within the pass tolerance, ties toward the heavier
            // side.
            let mut choice: Option<(i64, Side)> = None;
            for side in [Side::A, Side::B] {
                let Some((gain, v)) = buckets[side.index()].peek_best() else {
                    continue;
                };
                let w = g.vertex_weight(v) as i64;
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
            let (_, v) = buckets[side.index()].pop_best().expect("peeked nonempty");
            locked[v as usize] = true;
            // Bucket gains are exact virtual gains for `work` (seeded
            // from the exact cache while work == p, maintained below).
            work.move_vertex_with_gain(g, v, gain);
            running += gain;
            moves.push(v);
            if running > best.1 && work.weight_imbalance() <= base_tol {
                best = (moves.len(), running);
            }

            for (u, w) in g.neighbors_weighted(v) {
                if locked[u as usize] {
                    continue;
                }
                let delta = if work.side(u) == side {
                    2 * w as i64
                } else {
                    -2 * (w as i64)
                };
                let b = &mut buckets[work.side(u).index()];
                if b.contains(u) {
                    let cur = b.gain_of(u);
                    b.update(u, cur + delta);
                } else {
                    // u had no moved neighbor yet (only pops remove
                    // bucket entries, and pops lock), so its virtual
                    // gain still equals the cached real gain.
                    b.insert(u, cache.gain(u) + delta);
                    touched.push(u);
                }
            }
        }

        let committed = best.0;
        let before = p.cut();
        let cache = &mut ws.gain_cache;
        for &v in &moves[..committed] {
            // record_move wants the pre-move partition; the cached gain
            // is the exact real gain of v at this point in the prefix.
            let real_gain = cache.gain(v);
            cache.record_move(g, p, v);
            p.move_vertex_with_gain(g, v, real_gain);
        }
        // Rewind the uncommitted virtual tail so fm_work mirrors p
        // again. Each vertex moved at most once per pass, so moving it
        // back restores its side regardless of order.
        for &v in &moves[committed..] {
            work.move_vertex(g, v);
        }
        // O(touched) cleanup instead of O(V) resets.
        for &v in touched.iter() {
            for b in buckets.iter_mut() {
                if b.contains(v) {
                    b.remove(v);
                }
            }
            locked[v as usize] = false;
        }
        touched.clear();
        debug_assert_eq!(p.cut(), p.recompute_cut(g));
        debug_assert!(before >= p.cut());
        before - p.cut()
    }
}

/// One-time O(V) setup per boundary-FM refine call (each pass
/// afterwards touches only boundary + reached vertices): tolerances,
/// bucket reset, work mirror, locked/touched clearing.
fn prepare(g: &Graph, p: &Bisection, ws: &mut Workspace) -> (u64, u64) {
    let n = g.num_vertices();
    let max_wdeg = g
        .vertices()
        .map(|v| g.weighted_degree(v))
        .max()
        .unwrap_or(0)
        .min(i64::MAX as u64) as i64;
    for b in ws.fm_buckets.iter_mut() {
        b.reset(n, max_wdeg);
    }
    if let Some(w) = ws.fm_work.as_mut() {
        w.copy_from(p);
    } else {
        ws.fm_work = Some(p.clone());
    }
    ws.locked.clear();
    ws.locked.resize(n, false);
    ws.fm_touched.clear();
    // Same tolerances as the full-scan pass (see pass_in).
    fm_tolerances(g)
}

impl Bisector for BoundaryFm {
    fn name(&self) -> String {
        "BFM".into()
    }

    fn bisect(&self, g: &Graph, rng: &mut dyn RngCore) -> Bisection {
        self.bisect_in(g, rng, &mut Workspace::new())
    }

    fn bisect_in(&self, g: &Graph, rng: &mut dyn RngCore, ws: &mut Workspace) -> Bisection {
        self.bisect_counted(g, rng, ws).0
    }

    fn bisect_counted(
        &self,
        g: &Graph,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let init = seed::random_balanced(g, rng);
        self.refine_counted(g, init, rng, ws)
    }
}

impl Refiner for BoundaryFm {
    fn refine(&self, g: &Graph, init: Bisection, rng: &mut dyn RngCore) -> Bisection {
        self.refine_counted(g, init, rng, &mut Workspace::new()).0
    }

    fn refine_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        if g.num_vertices() >= 2 {
            ws.gain_cache.init(g, &init);
        }
        // An arbitrary start may need long hill-crossing runs: at the
        // coarsest level of a ladder, passes from a random start
        // improve after gaps of up to 40% of the vertices.
        let passes = self.refine_with_cache(g, &mut init, ws, usize::MAX);
        (init, passes)
    }

    fn wants_projected_cache(&self) -> bool {
        true
    }

    fn refine_projected_counted(
        &self,
        g: &Graph,
        mut init: Bisection,
        _rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (Bisection, u64) {
        let limit = self.projected_limit(g.num_vertices());
        let passes = self.refine_with_cache(g, &mut init, ws, limit);
        (init, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisect_gen::special;
    use bisect_graph::VertexId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pass_never_increases_cut_and_keeps_balance() {
        let g = special::grid(6, 6);
        let fm = FiducciaMattheyses::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = seed::random_balanced(&g, &mut rng);
            let before = p.cut();
            let improvement = fm.pass(&g, &mut p);
            assert_eq!(before - p.cut(), improvement, "seed {seed}");
            assert!(p.is_balanced(&g), "seed {seed}");
        }
    }

    #[test]
    fn solves_cycle_with_best_of() {
        let g = special::cycle(24);
        let mut rng = StdRng::seed_from_u64(0);
        let best = crate::bisector::best_of(&FiducciaMattheyses::new(), &g, 5, &mut rng);
        assert_eq!(best.cut(), 2);
    }

    #[test]
    fn comparable_to_kl_on_grid() {
        let g = special::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(12);
        let fm = crate::bisector::best_of(&FiducciaMattheyses::new(), &g, 5, &mut rng);
        assert!(fm.cut() <= 14, "FM cut {}", fm.cut());
    }

    #[test]
    fn odd_vertex_count() {
        let g = special::binary_tree(31);
        let mut rng = StdRng::seed_from_u64(3);
        let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn weighted_coarse_graph() {
        use bisect_graph::{contraction, matching};
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let init = seed::weight_balanced_random(coarse, &mut rng);
        let p = FiducciaMattheyses::new().refine(coarse, init, &mut rng);
        assert!(p.is_balanced(coarse));
        assert_eq!(p.cut(), p.recompute_cut(coarse));
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..4usize {
            let g = bisect_graph::Graph::empty(n);
            let p = FiducciaMattheyses::new().bisect(&g, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }

    #[test]
    fn fixpoint_returns_zero() {
        let g = special::grid(4, 4);
        let fm = FiducciaMattheyses::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = fm.bisect(&g, &mut rng);
        assert_eq!(fm.pass(&g, &mut p), 0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_passes_rejected() {
        let _ = FiducciaMattheyses::new().with_max_passes(0);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn boundary_zero_passes_rejected() {
        let _ = BoundaryFm::new().with_max_passes(0);
    }

    #[test]
    fn boundary_refine_never_increases_cut_and_keeps_balance() {
        let g = special::grid(6, 6);
        let bfm = BoundaryFm::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = seed::random_balanced(&g, &mut rng);
            let before = p.cut();
            let refined = bfm.refine(&g, p, &mut rng);
            assert!(refined.cut() <= before, "seed {seed}");
            assert!(refined.is_balanced(&g), "seed {seed}");
            assert_eq!(refined.cut(), refined.recompute_cut(&g), "seed {seed}");
        }
    }

    #[test]
    fn boundary_solves_cycle_with_best_of() {
        let g = special::cycle(24);
        let mut rng = StdRng::seed_from_u64(0);
        let best = crate::bisector::best_of(&BoundaryFm::new(), &g, 5, &mut rng);
        assert_eq!(best.cut(), 2);
    }

    #[test]
    fn boundary_refine_leaves_cache_exact() {
        let g = special::grid(8, 8);
        let bfm = BoundaryFm::new();
        let mut ws = Workspace::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = seed::random_balanced(&g, &mut rng);
            let (refined, _) = bfm.refine_counted(&g, init, &mut rng, &mut ws);
            for v in g.vertices() {
                assert_eq!(ws.gain_cache().gain(v), refined.gain(&g, v), "seed {seed}");
                let ext: u64 = g
                    .neighbors_weighted(v)
                    .filter(|&(u, _)| refined.side(u) != refined.side(v))
                    .map(|(_, w)| w)
                    .sum();
                assert_eq!(ws.gain_cache().ext(v), ext, "seed {seed}");
            }
        }
    }

    #[test]
    fn boundary_projected_entry_matches_plain_refine() {
        // refine_projected_counted with an externally prepared cache
        // must equal refine_counted (which builds its own).
        let g = special::grid(8, 8);
        let bfm = BoundaryFm::new();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = seed::random_balanced(&g, &mut rng);
            let mut ws_a = Workspace::new();
            let (plain, passes_a) = bfm.refine_counted(&g, init.clone(), &mut rng, &mut ws_a);
            let mut ws_b = Workspace::new();
            ws_b.prepare_gain_cache(&g, &init);
            let (projected, passes_b) = bfm.refine_projected_counted(&g, init, &mut rng, &mut ws_b);
            assert_eq!(plain, projected, "seed {seed}");
            assert_eq!(passes_a, passes_b, "seed {seed}");
        }
    }

    #[test]
    fn boundary_refine_is_deterministic_across_workspace_reuse() {
        let g = special::grid(10, 6);
        let bfm = BoundaryFm::new();
        let mut ws = Workspace::new();
        let mut rng = StdRng::seed_from_u64(42);
        let init = seed::random_balanced(&g, &mut rng);
        let (a, _) = bfm.refine_counted(&g, init.clone(), &mut rng, &mut ws);
        // Reused (warm, differently sized) workspace must not change
        // the result.
        let small = special::grid(3, 3);
        let mut srng = StdRng::seed_from_u64(1);
        let sinit = seed::random_balanced(&small, &mut srng);
        let _ = bfm.refine_counted(&small, sinit, &mut srng, &mut ws);
        let (b, _) = bfm.refine_counted(&g, init, &mut rng, &mut ws);
        assert_eq!(a, b);
    }

    #[test]
    fn boundary_weighted_coarse_graph() {
        use bisect_graph::{contraction, matching};
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let m = matching::random_maximal(&g, &mut rng);
        let c = contraction::contract_matching(&g, &m);
        let coarse = c.coarse();
        let init = seed::weight_balanced_random(coarse, &mut rng);
        let p = BoundaryFm::new().refine(coarse, init, &mut rng);
        assert!(p.is_balanced(coarse));
        assert_eq!(p.cut(), p.recompute_cut(coarse));
    }

    /// Replays `moves` on `start`: the first of the largest positive
    /// cut improvements among the prefixes that end within `base_tol`,
    /// as (moves in it, its improvement) — `(0, 0)` if none improves.
    fn best_explored_prefix(
        g: &Graph,
        start: &Bisection,
        moves: &[VertexId],
        base_tol: u64,
    ) -> (usize, i64) {
        let mut q = start.clone();
        let mut best = (0, 0);
        for (i, &v) in moves.iter().enumerate() {
            q.move_vertex(g, v);
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
        /// one workspace: each explores a prefix of the unbounded
        /// reference pass from the same state, stops only when it runs
        /// dry or `limit` moves past its best prefix, commits exactly
        /// the best balanced positive prefix of what it explored, never
        /// raises the cut, and leaves the gain cache exact.
        #[test]
        fn bounded_pass_commits_the_best_explored_prefix(
            n in 4usize..120,
            degree in 1usize..5,
            levels in 0usize..3,
            graph_seed in 0u64..10_000,
            start_seed in 0u64..10_000,
            limit in 1usize..16,
        ) {
            let g = crate::partition::testutil::weighted_coarse_graph(
                n, n * degree, levels, graph_seed,
            );
            let mut p = seed::weight_balanced_random(&g, &mut StdRng::seed_from_u64(start_seed));
            let bfm = BoundaryFm::new();
            let mut ws = Workspace::new();
            ws.gain_cache.init(&g, &p);
            let tols = prepare(&g, &p, &mut ws);
            let base_tol = tols.0;
            let mut ref_ws = Workspace::new();
            for _ in 0..64 {
                let start = p.clone();
                let mut reference = start.clone();
                // The cache's boundary order (the bucket seeding order)
                // follows its move history, so the reference starts
                // from a copy.
                ref_ws.gain_cache = ws.gain_cache.clone();
                prepare(&g, &reference, &mut ref_ws);
                let ref_gain = bfm.pass_with_cache(
                    &g, &mut reference, &mut ref_ws, tols, usize::MAX,
                );
                let gain = bfm.pass_with_cache(&g, &mut p, &mut ws, tols, limit);

                let moves = &ws.fm_moves;
                let ref_moves = &ref_ws.fm_moves;
                proptest::prop_assert!(ref_moves.starts_with(moves));
                let (k, best_gain) = best_explored_prefix(&g, &start, moves, base_tol);
                proptest::prop_assert!(moves.len() - k <= limit);
                if moves.len() < ref_moves.len() {
                    proptest::prop_assert_eq!(moves.len() - k, limit);
                }
                proptest::prop_assert_eq!(gain, best_gain as u64);
                let mut expected = start.clone();
                for &v in &moves[..k] {
                    expected.move_vertex(&g, v);
                }
                proptest::prop_assert_eq!(&p, &expected);
                proptest::prop_assert_eq!(p.cut(), p.recompute_cut(&g));
                proptest::prop_assert!(gain == 0 || p.weight_imbalance() <= base_tol);
                for v in g.vertices() {
                    proptest::prop_assert_eq!(ws.gain_cache.gain(v), p.gain(&g, v));
                }
                // Having explored the reference's best prefix, the
                // bounded pass commits the same one.
                let (ref_k, _) = best_explored_prefix(&g, &start, ref_moves, base_tol);
                if ref_k <= moves.len() {
                    proptest::prop_assert_eq!(&p, &reference);
                    proptest::prop_assert_eq!(gain, ref_gain);
                }
                if gain == 0 {
                    break;
                }
            }
        }

        /// A limit of at least `n` never ends a pass early: refining a
        /// projected start is bit-identical to the unbounded reference.
        #[test]
        fn limit_of_n_matches_the_unbounded_reference(
            n in 2usize..120,
            degree in 1usize..5,
            levels in 0usize..3,
            graph_seed in 0u64..10_000,
            start_seed in 0u64..10_000,
            extra in 0usize..3,
        ) {
            let g = crate::partition::testutil::weighted_coarse_graph(
                n, n * degree, levels, graph_seed,
            );
            let init = seed::weight_balanced_random(&g, &mut StdRng::seed_from_u64(start_seed));
            let mut rng = StdRng::seed_from_u64(0);
            let mut run = |bfm: BoundaryFm| {
                let mut ws = Workspace::new();
                ws.prepare_gain_cache(&g, &init);
                bfm.refine_projected_counted(&g, init.clone(), &mut rng, &mut ws)
            };
            let bounded = run(BoundaryFm::new().with_stall_limit(g.num_vertices() + extra));
            let reference = run(BoundaryFm::new().with_stall_limit(usize::MAX));
            proptest::prop_assert_eq!(bounded, reference);
        }
    }

    #[test]
    fn bounded_multilevel_matches_the_unbounded_reference_above_the_floor() {
        // Finest level 2·10^4 vertices: its passes are bounded by
        // 2 500 moves and end after ~3 300 of the ~17 700 the unbounded
        // passes make, yet commit the same prefixes.
        use crate::pipeline::Pipeline;
        use bisect_gen::gnp::{self, GnpParams};
        let params = GnpParams::with_average_degree(20_000, 3.0).unwrap();
        let g = gnp::sample(&mut StdRng::seed_from_u64(0), &params);
        let gr = bisect_graph::reorder::bfs(&g).apply(&g);
        let mut ws = Workspace::new();
        let mut run = |bfm: BoundaryFm| {
            Pipeline::multilevel(bfm).bisect_counted(&gr, &mut StdRng::seed_from_u64(7), &mut ws)
        };
        let (bounded, bounded_passes) = run(BoundaryFm::new());
        let (reference, reference_passes) = run(BoundaryFm::new().with_stall_limit(usize::MAX));
        assert_eq!(bounded.cut(), reference.cut());
        assert_eq!(bounded_passes, reference_passes);
        assert_eq!(bounded, reference);
    }

    #[test]
    fn boundary_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 0..4usize {
            let g = bisect_graph::Graph::empty(n);
            let p = BoundaryFm::new().bisect(&g, &mut rng);
            assert_eq!(p.cut(), 0);
        }
    }
}
