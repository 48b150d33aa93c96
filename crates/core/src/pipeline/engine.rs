//! The shared coarsen → partition → refine engine.
//!
//! One function, `run`, subsumes the bespoke drivers the crate used
//! to carry:
//!
//! * one-shot compaction (§V of the paper; CKL/CSA) is
//!   [`CoarsenDepth::Levels`]`(1)`,
//! * multilevel (V-cycle) bisection is [`CoarsenDepth::ToSize`] (or
//!   [`CoarsenDepth::ToSizeOrStall`] on inputs with unmatchable
//!   vertices), and
//! * a plain heuristic from a random start is [`CoarsenDepth::Flat`].
//!
//! [`Pipeline`](super::Pipeline) is a thin descriptor around this one
//! call — which is what made the pipeline *bit-identical* to the
//! bespoke drivers it replaced: both sides executed this exact
//! sequence of rng draws (pinned today by the golden values in
//! `tests/pipeline_equivalence.rs`).
//!
//! The rng-draw order is part of the contract and must not be
//! reordered: (1) one matching per coarsening level, finest first
//! (including a level `ToSizeOrStall` then drops); (2) the initial
//! partition of the coarsest graph — or, in `Levels` mode when the
//! coarsener made no progress, the coarsest refiner's own from-scratch
//! bisection (the legacy §V fallback for edgeless graphs); (3) one
//! refinement per level, coarsest first, each from the projected and
//! rebalanced bisection of the level below.

use bisect_graph::contraction::Contraction;
use bisect_graph::Graph;
use rand::RngCore;

use crate::bisector::Refiner;
use crate::error::BisectError;
use crate::partition::{rebalance_in, rebalance_with_cache, Bisection};
use crate::workspace::Workspace;

use super::coarsen::CoarsenScheme;
use super::Pipeline;

/// How far the pipeline coarsens before the initial partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarsenDepth {
    /// No coarsening: initial partition and refinement happen directly
    /// on the input graph.
    Flat,
    /// Exactly this many contraction levels (stopping early only when
    /// the coarsener makes no progress). The paper's compaction is
    /// `Levels(1)`.
    Levels(usize),
    /// Contract until the graph has at most this many vertices — the
    /// multilevel (V-cycle) regime. Must be at least 2.
    ToSize(usize),
    /// As [`CoarsenDepth::ToSize`], but the first level that shrinks
    /// the graph by less than 5% is dropped and ends coarsening. Sparse
    /// random graphs and netlists carry vertices that never match
    /// (isolated vertices, netless cells); once mostly those remain,
    /// `ToSize` stacks near-identical levels, each costing a full
    /// contraction and refinement. Must be at least 2.
    ToSizeOrStall(usize),
}

impl CoarsenDepth {
    /// Whether another coarsening level should be attempted given how
    /// many levels exist and how large the current coarsest graph is.
    pub(crate) fn wants_more(self, levels_done: usize, vertices: usize) -> bool {
        match self {
            CoarsenDepth::Flat => false,
            CoarsenDepth::Levels(k) => levels_done < k,
            CoarsenDepth::ToSize(target) | CoarsenDepth::ToSizeOrStall(target) => vertices > target,
        }
    }

    /// Whether a level that contracted `before` vertices (or cells) to
    /// `after` is kept. A level that is not kept is dropped and ends
    /// coarsening; only [`CoarsenDepth::ToSizeOrStall`] drops any.
    pub(crate) fn keeps(self, before: usize, after: usize) -> bool {
        match self {
            CoarsenDepth::ToSizeOrStall(_) => after * 20 <= before * 19,
            _ => true,
        }
    }

    /// Validates the depth, rejecting size targets below 2 (a 1-vertex
    /// coarsest graph has no bisection to refine).
    pub(crate) fn validate(self) -> Result<CoarsenDepth, BisectError> {
        if let CoarsenDepth::ToSize(target) | CoarsenDepth::ToSizeOrStall(target) = self {
            if target < 2 {
                return Err(BisectError::InvalidConfig(format!(
                    "coarsest size must be at least 2, got {target}"
                )));
            }
        }
        Ok(self)
    }
}

/// The coarsening ladder of `g` under `depth`, finest contraction
/// first: phase (1) of the engine's rng-draw order.
fn coarsen(
    coarsener: &dyn CoarsenScheme,
    depth: CoarsenDepth,
    g: &Graph,
    rng: &mut dyn RngCore,
) -> Vec<Contraction> {
    let mut ladder: Vec<Contraction> = Vec::new();
    loop {
        let current: &Graph = ladder.last().map_or(g, |c| c.coarse());
        if !depth.wants_more(ladder.len(), current.num_vertices()) {
            break;
        }
        match coarsener.coarsen(current, rng) {
            Some(c) if depth.keeps(current.num_vertices(), c.coarse().num_vertices()) => {
                ladder.push(c);
            }
            _ => break,
        }
    }
    ladder
}

/// Runs `pipeline`'s full coarsen → partition → refine cycle. Returns
/// the final balanced bisection of `g` together with the summed work
/// count of every refinement stage (see
/// [`Bisector::bisect_counted`](crate::bisector::Bisector::bisect_counted)).
///
/// The coarsest refiner (see
/// [`Pipeline::with_coarsest_refiner`]) refines the coarsest graph —
/// the input graph itself when nothing was contracted; the main refiner
/// refines every level above it and decides the projected-cache
/// protocol.
///
/// # Errors
///
/// Propagates the initial partitioner's error (e.g.
/// [`BisectError::TooLarge`] from the exact partitioner); the built-in
/// random partitioners never fail.
pub(super) fn run(
    pipeline: &Pipeline,
    g: &Graph,
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> Result<(Bisection, u64), BisectError> {
    let depth = pipeline.depth;
    let refiner: &dyn Refiner = pipeline.refiner.as_ref();
    let coarsest_refiner: &dyn Refiner = match &pipeline.coarsest_refiner {
        Some(r) => r.as_ref(),
        None => refiner,
    };
    let ladder = coarsen(pipeline.coarsener.as_ref(), depth, g, rng);

    // Initial bisection of the coarsest graph. In Levels mode an empty
    // ladder means the coarsener made no progress on the input graph
    // itself; the paper's compaction then falls through to the plain
    // heuristic (its own random start), which we preserve exactly.
    let (mut current, mut work) = if ladder.is_empty() && matches!(depth, CoarsenDepth::Levels(_)) {
        coarsest_refiner.bisect_counted(g, rng, ws)
    } else {
        let coarsest: &Graph = ladder.last().map_or(g, |c| c.coarse());
        let init = pipeline.initial.partition(coarsest, rng)?;
        coarsest_refiner.refine_counted(coarsest, init, rng, ws)
    };

    // Uncoarsening phase: project and refine level by level. The fine
    // graph of ladder level `i` is the coarse graph of level `i − 1`
    // (or the input graph at the bottom). Contraction sums parallel
    // edges, so projection preserves the cut exactly and the fine
    // bisection is built in O(V) without recounting it. Projection can
    // be off by one weight unit when a matching leaves singletons, so
    // each level rebalances before refining.
    //
    // Boundary-localized refiners opt into the projected-cache
    // protocol: the engine builds the gain cache once on the (small)
    // coarsest graph and *projects* it through each uncoarsening step,
    // so no level ever pays the O(V + E) rebuild — rebalancing then
    // rides the same cache. Refiners on the default path see the exact
    // sequence of calls (and rng draws) they always did.
    let projected_cache = refiner.wants_projected_cache() && !ladder.is_empty();
    if projected_cache {
        // lint: allow(no-panic) — guarded by !ladder.is_empty() above
        let coarsest: &Graph = ladder.last().map(|c| c.coarse()).expect("nonempty ladder");
        ws.gain_cache.init(coarsest, &current);
    }
    for i in (0..ladder.len()).rev() {
        let fine: &Graph = if i == 0 { g } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let mut projected = Bisection::from_sides_with_cut(fine, sides, current.cut())?;
        let (refined, stage_work) = if projected_cache {
            ws.gain_cache
                .project(fine, &projected, ladder[i].fine_to_coarse());
            rebalance_with_cache(fine, &mut projected, ws);
            refiner.refine_projected_counted(fine, projected, rng, ws)
        } else {
            rebalance_in(fine, &mut projected, ws);
            refiner.refine_counted(fine, projected, rng, ws)
        };
        current = refined;
        work += stage_work;
    }
    if !current.is_balanced(g) {
        rebalance_in(g, &mut current, ws);
    }
    Ok((current, work))
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::bisector::Bisector;
    use crate::fm::BoundaryFm;
    use crate::kl::KernighanLin;
    use crate::pipeline::coarsen::{HeavyEdgeMatching, ParallelMatching};
    use bisect_gen::special;
    use bisect_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_kl(g: &Graph, depth: CoarsenDepth, seed: u64) -> (Bisection, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        Pipeline::multilevel(KernighanLin::new())
            .with_depth(depth)
            .expect("valid depth")
            .try_bisect_counted(g, &mut rng, &mut Workspace::new())
            .expect("infallible stages")
    }

    #[test]
    fn all_depths_produce_balanced_bisections() {
        let g = special::grid(8, 8);
        for depth in [
            CoarsenDepth::Flat,
            CoarsenDepth::Levels(1),
            CoarsenDepth::Levels(3),
            CoarsenDepth::ToSize(16),
            CoarsenDepth::ToSizeOrStall(16),
        ] {
            let (p, _) = run_kl(&g, depth, 5);
            assert!(p.is_balanced(&g), "{depth:?}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "{depth:?}");
        }
    }

    #[test]
    fn deeper_coarsening_still_terminates_on_tiny_graphs() {
        let g = special::path(3);
        let (p, _) = run_kl(&g, CoarsenDepth::ToSize(2), 1);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn levels_mode_on_edgeless_graph_falls_through() {
        let g = Graph::empty(8);
        let (p, _) = run_kl(&g, CoarsenDepth::Levels(1), 3);
        assert_eq!(p.cut(), 0);
        assert!(p.is_balanced(&g));
    }

    #[test]
    fn work_count_accumulates_over_levels() {
        let g = special::grid(10, 10);
        let (_, flat) = run_kl(&g, CoarsenDepth::Flat, 8);
        let (_, ml) = run_kl(&g, CoarsenDepth::ToSize(8), 8);
        assert!(flat >= 1);
        // The multilevel run refines at every level of the ladder.
        assert!(ml >= flat.min(2));
    }

    #[test]
    fn projected_cache_path_is_balanced_consistent_and_deterministic() {
        let g = special::grid(12, 12);
        let pipeline = Pipeline::multilevel_to(BoundaryFm::new(), 16).expect("valid size");
        let run_once = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            pipeline.bisect_counted(&g, &mut rng, &mut Workspace::new())
        };
        for seed in 0..6 {
            let (p, work) = run_once(seed);
            assert!(p.is_balanced(&g), "seed {seed}");
            assert_eq!(p.cut(), p.recompute_cut(&g), "seed {seed}");
            assert!(work >= 1, "seed {seed}");
            // Multilevel boundary FM should land near the optimum 12.
            assert!(p.cut() <= 20, "seed {seed}: cut {}", p.cut());
            let (q, _) = run_once(seed);
            assert_eq!(p, q, "seed {seed}: nondeterministic");
        }
    }

    #[test]
    fn projected_cache_flat_depth_falls_back_gracefully() {
        let g = special::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(9);
        let p = Pipeline::multilevel(BoundaryFm::new())
            .with_depth(CoarsenDepth::Flat)
            .expect("valid depth")
            .bisect(&g, &mut rng);
        assert!(p.is_balanced(&g));
        assert_eq!(p.cut(), p.recompute_cut(&g));
    }

    #[test]
    fn depth_validation() {
        assert!(CoarsenDepth::ToSize(1).validate().is_err());
        assert!(CoarsenDepth::ToSize(2).validate().is_ok());
        assert!(CoarsenDepth::ToSizeOrStall(1).validate().is_err());
        assert!(CoarsenDepth::ToSizeOrStall(2).validate().is_ok());
        assert!(CoarsenDepth::Levels(0).validate().is_ok());
        assert!(CoarsenDepth::Flat.validate().is_ok());
    }

    /// A 16×16 grid plus `isolated` vertices that can never match.
    fn grid_with_isolated(isolated: usize) -> Graph {
        let grid = special::grid(16, 16);
        let mut b = GraphBuilder::new(grid.num_vertices() + isolated);
        for v in grid.vertices() {
            for &u in grid.neighbors(v) {
                if v < u {
                    b.add_edge(v, u).expect("grid edge");
                }
            }
        }
        b.build()
    }

    #[test]
    fn to_size_or_stall_stops_at_the_first_stalled_level() {
        // The grid halves per level while the isolated vertices stay, so
        // shrinkage falls below 5% long before the grid collapses.
        let g = grid_with_isolated(744);
        let matching = ParallelMatching::new().with_threads(1);
        let mut rng = StdRng::seed_from_u64(0);
        let stall = coarsen(&matching, CoarsenDepth::ToSizeOrStall(2), &g, &mut rng);
        let plain = coarsen(&matching, CoarsenDepth::ToSize(2), &g, &mut rng);
        assert!(!stall.is_empty());
        assert!(
            plain.len() > stall.len(),
            "{} vs {}",
            plain.len(),
            stall.len()
        );
        // Both ladders agree up to the stall; every kept level shrank by
        // at least 5% and the first dropped one by less.
        let mut before = g.num_vertices();
        for (kept, same) in stall.iter().zip(&plain) {
            let after = kept.coarse().num_vertices();
            assert_eq!(after, same.coarse().num_vertices());
            assert!(after * 20 <= before * 19, "{before} -> {after}");
            before = after;
        }
        let dropped = plain[stall.len()].coarse().num_vertices();
        assert!(dropped * 20 > before * 19, "{before} -> {dropped}");
        // Plain ToSize is unchanged: it runs until the matching is empty.
        let last = plain.last().expect("nonempty").coarse();
        assert!(last.num_vertices() > 2);
        assert!(matching.coarsen(last, &mut rng).is_none());
    }

    /// One refiner call: which entry point, the level's vertex count,
    /// and whether the start passed `is_balanced`.
    type Call = (&'static str, usize, bool);

    /// Delegates to `inner` and logs every call.
    struct Recording<R> {
        inner: R,
        log: Arc<Mutex<Vec<Call>>>,
    }

    impl<R> Recording<R> {
        fn record(&self, call: Call) {
            self.log.lock().expect("unpoisoned").push(call);
        }
    }

    impl<R: Refiner> Bisector for Recording<R> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn bisect(&self, g: &Graph, rng: &mut dyn RngCore) -> Bisection {
            self.bisect_counted(g, rng, &mut Workspace::new()).0
        }

        fn bisect_counted(
            &self,
            g: &Graph,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (Bisection, u64) {
            self.record(("bisect", g.num_vertices(), true));
            self.inner.bisect_counted(g, rng, ws)
        }
    }

    impl<R: Refiner> Refiner for Recording<R> {
        fn refine(&self, g: &Graph, init: Bisection, rng: &mut dyn RngCore) -> Bisection {
            self.refine_counted(g, init, rng, &mut Workspace::new()).0
        }

        fn refine_counted(
            &self,
            g: &Graph,
            init: Bisection,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (Bisection, u64) {
            self.record(("refine", g.num_vertices(), init.is_balanced(g)));
            self.inner.refine_counted(g, init, rng, ws)
        }

        fn wants_projected_cache(&self) -> bool {
            self.inner.wants_projected_cache()
        }

        fn refine_projected_counted(
            &self,
            g: &Graph,
            init: Bisection,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (Bisection, u64) {
            self.record(("projected", g.num_vertices(), init.is_balanced(g)));
            self.inner.refine_projected_counted(g, init, rng, ws)
        }
    }

    /// Runs `base()` with recording level and coarsest refiners wrapping
    /// `level` and `coarsest`, and checks the engine protocol: every
    /// start is balanced, the coarsest refiner runs once on the
    /// coarsest graph, and the level refiner once per ladder level,
    /// coarsest first, through the projected-cache entry point exactly
    /// when it opts in.
    fn check_protocol<L, C>(
        g: &Graph,
        base: &dyn Fn() -> Pipeline,
        level: L,
        coarsest: C,
        seed: u64,
    ) where
        L: Refiner + Send + Sync + 'static,
        C: Refiner + Send + Sync + 'static,
    {
        let levels_log = Arc::new(Mutex::new(Vec::new()));
        let coarsest_log = Arc::new(Mutex::new(Vec::new()));
        let projected = level.wants_projected_cache();
        let base = base();
        let pipeline = Pipeline {
            refiner: Arc::new(Recording {
                inner: level,
                log: Arc::clone(&levels_log),
            }),
            ..base.clone()
        }
        .with_coarsest_refiner(Recording {
            inner: coarsest,
            log: Arc::clone(&coarsest_log),
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, _) = pipeline.bisect_counted(g, &mut rng, &mut Workspace::new());
        assert!(p.is_balanced(g));
        assert_eq!(p.cut(), p.recompute_cut(g));

        let ladder = coarsen(
            base.coarsener.as_ref(),
            base.depth,
            g,
            &mut StdRng::seed_from_u64(seed),
        );
        let coarsest_size = ladder.last().map_or(g, |c| c.coarse()).num_vertices();
        let coarsest_calls = coarsest_log.lock().expect("unpoisoned").clone();
        assert_eq!(coarsest_calls.len(), 1, "{}", base.describe());
        let (entry, size, balanced) = coarsest_calls[0];
        assert_eq!(size, coarsest_size, "{}", base.describe());
        assert!(balanced, "{}: unbalanced coarsest start", base.describe());
        assert_ne!(entry, "projected");

        let level_calls = levels_log.lock().expect("unpoisoned").clone();
        let expected: Vec<usize> = (0..ladder.len())
            .rev()
            .map(|i| {
                if i == 0 {
                    g.num_vertices()
                } else {
                    ladder[i - 1].coarse().num_vertices()
                }
            })
            .collect();
        let sizes: Vec<usize> = level_calls.iter().map(|c| c.1).collect();
        assert_eq!(sizes, expected, "{}", base.describe());
        let want = if projected { "projected" } else { "refine" };
        for (entry, size, balanced) in level_calls {
            assert_eq!(entry, want, "{}", base.describe());
            assert!(balanced, "{}: unbalanced start at {size}", base.describe());
        }
    }

    #[test]
    fn every_refine_call_gets_a_balanced_start_once_per_level() {
        // Sparse Gnp: weighted coarse levels (so projection can unbalance
        // a start) and isolated vertices (so ToSizeOrStall stalls).
        let params = bisect_gen::gnp::GnpParams::with_average_degree(600, 1.5).expect("valid");
        let g = bisect_gen::gnp::sample(&mut StdRng::seed_from_u64(3), &params);
        let pipelines: [&dyn Fn() -> Pipeline; 4] = [
            &|| Pipeline::multilevel_to(KernighanLin::new(), 16).expect("valid"),
            &|| {
                Pipeline::multilevel(KernighanLin::new())
                    .with_coarsener(ParallelMatching::new().with_threads(2))
                    .with_depth(CoarsenDepth::ToSizeOrStall(16))
                    .expect("valid")
            },
            &|| {
                Pipeline::compacted(KernighanLin::new())
                    .with_coarsener(HeavyEdgeMatching)
                    .with_depth(CoarsenDepth::Levels(3))
                    .expect("valid")
            },
            &|| Pipeline::flat(KernighanLin::new()),
        ];
        for seed in 0..3 {
            for base in pipelines {
                check_protocol(&g, base, BoundaryFm::new(), BoundaryFm::new(), seed);
                check_protocol(&g, base, KernighanLin::new(), BoundaryFm::new(), seed);
                check_protocol(&g, base, BoundaryFm::new(), KernighanLin::new(), seed);
            }
        }
    }

    #[test]
    fn levels_fallback_uses_the_coarsest_refiner() {
        let g = Graph::empty(8);
        let log = Arc::new(Mutex::new(Vec::new()));
        let pipeline = Pipeline::ckl().with_coarsest_refiner(Recording {
            inner: KernighanLin::new(),
            log: Arc::clone(&log),
        });
        let p = pipeline.bisect(&g, &mut StdRng::seed_from_u64(1));
        assert!(p.is_balanced(&g));
        assert_eq!(*log.lock().expect("unpoisoned"), vec![("bisect", 8, true)]);
    }

    #[test]
    fn unset_coarsest_refiner_is_the_plain_pipeline() {
        // Naming the main refiner as the coarsest one changes nothing.
        let g = special::grid(12, 12);
        let plain = Pipeline::multilevel_to(BoundaryFm::new(), 16).expect("valid");
        let split = plain.clone().with_coarsest_refiner(BoundaryFm::new());
        for seed in 0..4 {
            let a =
                plain.bisect_counted(&g, &mut StdRng::seed_from_u64(seed), &mut Workspace::new());
            let b =
                split.bisect_counted(&g, &mut StdRng::seed_from_u64(seed), &mut Workspace::new());
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
