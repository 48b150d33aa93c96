//! The coarsen → partition → refine engine on netlists — the
//! hypergraph counterpart of [`crate::pipeline`]'s graph engine, sharing
//! its [`CoarsenDepth`] vocabulary and its projected-cache protocol.
//!
//! Coarsening contracts cell matchings along nets (a [`CellMatching`]:
//! by default hMETIS-style random matching, see
//! [`bisect_graph::hypergraph::random_cell_matching`]); the coarsest
//! netlist gets a weight-balanced random bisection; refinement walks
//! the ladder back up, projecting sides — and, for refiners that opt
//! in, the [`super::NetlistGainCache`] — level by level.
//!
//! The engine additionally supports *fixed cells*: cells pinned to a
//! side that never match, never move, and survive every coarsening
//! level as singletons. [`super::recursive_placement`] uses this for
//! terminal propagation, fixing one anchor cell per side whose nets
//! bias the gains of cells connected outside the current subproblem.

use std::sync::Arc;

use bisect_graph::hypergraph::{
    contract_cells_into, Netlist, NetlistContraction, NetlistContractionScratch,
};
use bisect_graph::VertexId;
use rand::RngCore;

use crate::error::BisectError;
use crate::partition::Side;
use crate::pipeline::{CoarsenDepth, DEFAULT_COARSEST_SIZE};
use crate::workspace::Workspace;

use super::coarsen::{CellMatching, RandomCellMatching};
use super::{
    rebalance_fixed, rebalance_with_cache, weight_balanced_random_fixed, NetlistBisection,
    NetlistFm, NetlistRefiner,
};

/// A named, reusable netlist bisection pipeline: a [`CellMatching`], a
/// [`CoarsenDepth`], and a [`NetlistRefiner`], mirroring the graph-side
/// [`crate::pipeline::Pipeline`] descriptor.
///
/// # Example
///
/// ```
/// use bisect_core::netlist::NetlistPipeline;
/// use bisect_graph::hypergraph::NetlistBuilder;
/// use rand::SeedableRng;
///
/// let mut b = NetlistBuilder::new(8);
/// for pins in [[0u32, 1, 2, 3].as_slice(), &[4, 5, 6, 7], &[3, 4]] {
///     b.add_net(pins).unwrap();
/// }
/// let nl = b.build();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = NetlistPipeline::multilevel_fm().bisect(&nl, &mut rng);
/// assert!(p.is_balanced(&nl));
/// ```
#[derive(Clone)]
pub struct NetlistPipeline {
    matching: Arc<dyn CellMatching>,
    depth: CoarsenDepth,
    refiner: Arc<dyn NetlistRefiner + Send + Sync>,
    /// Refiner of the coarsest netlist; `None` uses `refiner` there too.
    coarsest_refiner: Option<Arc<dyn NetlistRefiner + Send + Sync>>,
    name: String,
}

impl std::fmt::Debug for NetlistPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetlistPipeline")
            .field("name", &self.name)
            .field("depth", &self.depth)
            .field("refiner", &self.refiner.name())
            .field(
                "coarsest_refiner",
                &self.coarsest_refiner.as_ref().map(|r| r.name()),
            )
            .finish()
    }
}

impl NetlistPipeline {
    /// A pipeline from a coarsening depth, a refiner, and a display
    /// name; it coarsens with [`RandomCellMatching`].
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] for size targets below 2.
    pub fn new<R: NetlistRefiner + Send + Sync + 'static>(
        depth: CoarsenDepth,
        refiner: R,
        name: impl Into<String>,
    ) -> Result<NetlistPipeline, BisectError> {
        Ok(NetlistPipeline {
            matching: Arc::new(RandomCellMatching),
            depth: depth.validate()?,
            refiner: Arc::new(refiner),
            coarsest_refiner: None,
            name: name.into(),
        })
    }

    /// [`NetlistFm`] directly on the input netlist (no coarsening).
    pub fn flat_fm() -> NetlistPipeline {
        NetlistPipeline::new(CoarsenDepth::Flat, NetlistFm::new(), "NetFM")
            // lint: allow(no-panic) — Flat always validates
            .expect("Flat is a valid depth")
    }

    /// One compaction level around [`NetlistFm`] (the paper's §V on the
    /// hypergraph objective).
    pub fn compacted_fm() -> NetlistPipeline {
        NetlistPipeline::new(CoarsenDepth::Levels(1), NetlistFm::new(), "NetCFM")
            // lint: allow(no-panic) — Levels(1) always validates
            .expect("Levels(1) is a valid depth")
    }

    /// A full multilevel V-cycle around [`NetlistFm`], coarsening to
    /// [`DEFAULT_COARSEST_SIZE`] cells.
    pub fn multilevel_fm() -> NetlistPipeline {
        NetlistPipeline::multilevel_fm_to(DEFAULT_COARSEST_SIZE)
            // lint: allow(no-panic) — the default coarsest size is ≥ 2
            .expect("default coarsest size is valid")
    }

    /// As [`NetlistPipeline::multilevel_fm`] with an explicit coarsest
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`BisectError::InvalidConfig`] if `coarsest_size < 2`.
    pub fn multilevel_fm_to(coarsest_size: usize) -> Result<NetlistPipeline, BisectError> {
        NetlistPipeline::new(
            CoarsenDepth::ToSize(coarsest_size),
            NetlistFm::new(),
            "NetMLFM",
        )
    }

    /// Replaces the cell matching every coarsening level contracts
    /// (e.g. [`super::ParallelCellMatching`]).
    pub fn with_matching<M: CellMatching + 'static>(mut self, matching: M) -> NetlistPipeline {
        self.matching = Arc::new(matching);
        self
    }

    /// Refines the coarsest netlist with `refiner` — and every level
    /// above it with the pipeline's own refiner, which alone decides
    /// the projected-cache protocol. The graph-side twin is
    /// [`crate::pipeline::Pipeline::with_coarsest_refiner`]. Unset, the
    /// pipeline's refiner runs at every level.
    pub fn with_coarsest_refiner<R: NetlistRefiner + Send + Sync + 'static>(
        mut self,
        refiner: R,
    ) -> NetlistPipeline {
        self.coarsest_refiner = Some(Arc::new(refiner));
        self
    }

    /// The pipeline's display name (benchmark tables, reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bisects `nl` with a throwaway workspace.
    pub fn bisect(&self, nl: &Netlist, rng: &mut dyn RngCore) -> NetlistBisection {
        self.bisect_counted(nl, rng, &mut Workspace::new()).0
    }

    /// Bisects `nl`, drawing scratch memory from `ws`; returns the
    /// bisection and the summed productive-pass count of every
    /// refinement stage.
    pub fn bisect_counted(
        &self,
        nl: &Netlist,
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        self.bisect_fixed_counted(nl, &[], rng, ws)
    }

    /// As [`NetlistPipeline::bisect_counted`], with cells pinned to
    /// sides: each `(cell, side)` pair is excluded from matching and
    /// movement at every level, so the returned bisection honors every
    /// assignment. Duplicate pairs must agree.
    ///
    /// # Panics
    ///
    /// Panics if a fixed cell is out of range or assigned both sides.
    pub fn bisect_fixed_counted(
        &self,
        nl: &Netlist,
        fixed: &[(VertexId, Side)],
        rng: &mut dyn RngCore,
        ws: &mut Workspace,
    ) -> (NetlistBisection, u64) {
        run(self, nl, fixed, rng, ws)
    }
}

/// The coarsening ladder of `nl` under `depth`, finest contraction
/// first, with the per-cell side pins of every level: `fixed_ladder[i]`
/// belongs to level `i`'s netlist (level 0 = input) and is empty when
/// nothing is fixed. Fixed cells are skipped by the matcher, so each
/// survives as a singleton coarse cell and its pin maps through
/// unambiguously.
fn coarsen(
    matching: &dyn CellMatching,
    depth: CoarsenDepth,
    nl: &Netlist,
    fixed0: Vec<Option<Side>>,
    rng: &mut dyn RngCore,
) -> (Vec<NetlistContraction>, Vec<Vec<Option<Side>>>) {
    let has_fixed = !fixed0.is_empty();
    let mut ladder: Vec<NetlistContraction> = Vec::new();
    let mut fixed_ladder: Vec<Vec<Option<Side>>> = vec![fixed0];
    let mut skip: Vec<bool> = Vec::new();
    // One scratch arena serves every level; it holds finest-level pin
    // buffers and is released before refinement.
    let mut scratch = NetlistContractionScratch::new();
    loop {
        let cur: &Netlist = ladder.last().map_or(nl, |c| c.coarse());
        if !depth.wants_more(ladder.len(), cur.num_cells()) {
            break;
        }
        let cur_fixed: &[Option<Side>] = fixed_ladder.last().map_or(&[], Vec::as_slice);
        skip.clear();
        skip.extend(cur_fixed.iter().map(Option::is_some));
        let pairs = matching.matching(cur, &skip, rng);
        if pairs.is_empty() {
            break;
        }
        let contraction = contract_cells_into(cur, &pairs, &mut scratch);
        if !depth.keeps(cur.num_cells(), contraction.coarse().num_cells()) {
            break;
        }
        let next_fixed = if has_fixed {
            let mut next: Vec<Option<Side>> = vec![None; contraction.coarse().num_cells()];
            for (c, s) in cur_fixed.iter().enumerate() {
                if let Some(side) = s {
                    next[contraction.map(c as VertexId) as usize] = Some(*side);
                }
            }
            next
        } else {
            Vec::new()
        };
        fixed_ladder.push(next_fixed);
        ladder.push(contraction);
    }
    (ladder, fixed_ladder)
}

/// The engine. Mirrors the graph-side `pipeline::engine::run` step for
/// step: (1) one matching per coarsening level, finest first, with
/// fixed cells skipped; (2) a weight-balanced random bisection of the
/// coarsest netlist honoring fixed sides, refined by the coarsest
/// refiner (or, in `Levels` mode with no coarsening progress and
/// nothing fixed, the legacy fallback of a plain random start); (3) one
/// refinement per level, coarsest first, each from the projected and
/// rebalanced bisection of the level below, with the gain cache
/// projected alongside for refiners that opt in.
// lint: allow(no-panic) — V-cycle shape invariants: fixed_ladder has one
// entry per level, the ladder is non-empty when indexed, and
// project_sides returns one entry per fine cell.
fn run(
    pipeline: &NetlistPipeline,
    nl: &Netlist,
    fixed_pairs: &[(VertexId, Side)],
    rng: &mut dyn RngCore,
    ws: &mut Workspace,
) -> (NetlistBisection, u64) {
    let depth = pipeline.depth;
    let refiner: &dyn NetlistRefiner = pipeline.refiner.as_ref();
    let coarsest_refiner: &dyn NetlistRefiner = match &pipeline.coarsest_refiner {
        Some(r) => r.as_ref(),
        None => refiner,
    };
    let n = nl.num_cells();
    let has_fixed = !fixed_pairs.is_empty();
    let mut fixed0: Vec<Option<Side>> = vec![None; if has_fixed { n } else { 0 }];
    for &(c, s) in fixed_pairs {
        assert!(
            (c as usize) < n,
            "fixed cell {c} out of range for {n} cells"
        );
        let slot = &mut fixed0[c as usize];
        assert!(
            slot.is_none() || *slot == Some(s),
            "cell {c} fixed to both sides"
        );
        *slot = Some(s);
    }
    let (ladder, fixed_ladder) = coarsen(pipeline.matching.as_ref(), depth, nl, fixed0, rng);

    // Initial bisection of the coarsest netlist.
    let mut flags: Vec<bool> = Vec::new();
    let coarsest_idx = ladder.len();
    let (mut current, mut work) =
        if ladder.is_empty() && matches!(depth, CoarsenDepth::Levels(_)) && !has_fixed {
            // Legacy §V fallback: the matcher made no progress on the
            // input itself, so compaction degenerates to the plain
            // heuristic from its own random start.
            let init = NetlistBisection::random_balanced(nl, rng);
            coarsest_refiner.refine_counted(nl, &[], init, rng, ws)
        } else {
            let coarsest: &Netlist = ladder.last().map_or(nl, |c| c.coarse());
            let init = weight_balanced_random_fixed(coarsest, &fixed_ladder[coarsest_idx], rng);
            flags.clear();
            flags.extend(fixed_ladder[coarsest_idx].iter().map(Option::is_some));
            coarsest_refiner.refine_counted(coarsest, &flags, init, rng, ws)
        };
    // Uncoarsening: project and refine level by level. Boundary-seeded
    // refiners opt into the projected-cache protocol — the cache is
    // built once on the (small) coarsest netlist and projected through
    // each step, so no level pays an O(cells + pins) rebuild;
    // rebalancing rides the same cache.
    let coarsest_cells = ladder.last().map_or(nl, |c| c.coarse()).num_cells();
    let projected_cache =
        refiner.wants_projected_cache() && !ladder.is_empty() && coarsest_cells >= 2;
    if projected_cache {
        let coarsest: &Netlist = ladder.last().map(|c| c.coarse()).expect("nonempty ladder");
        ws.netlist_cache.init(coarsest, &current);
    }
    for i in (0..ladder.len()).rev() {
        let fine: &Netlist = if i == 0 { nl } else { ladder[i - 1].coarse() };
        let sides = ladder[i].project_sides(current.sides());
        let mut projected =
            NetlistBisection::from_sides(fine, sides).expect("projection covers every fine cell");
        flags.clear();
        flags.extend(fixed_ladder[i].iter().map(Option::is_some));
        let (refined, stage) = if projected_cache {
            ws.netlist_cache
                .project(fine, &projected, ladder[i].fine_to_coarse());
            rebalance_with_cache(fine, &mut projected, &flags, ws);
            refiner.refine_projected_counted(fine, &flags, projected, rng, ws)
        } else {
            rebalance_fixed(fine, &mut projected, &flags, ws);
            refiner.refine_counted(fine, &flags, projected, rng, ws)
        };
        current = refined;
        work += stage;
    }
    if !current.is_balanced(nl) {
        flags.clear();
        flags.extend(fixed_ladder[0].iter().map(Option::is_some));
        rebalance_fixed(nl, &mut current, &flags, ws);
    }
    (current, work)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::super::testutil::two_clusters;
    use super::*;
    use bisect_graph::hypergraph::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn random_netlist(cells: usize, nets: usize, seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(cells);
        for _ in 0..nets {
            let size = rng.gen_range(2..=5usize);
            let mut pins: Vec<u32> = (0..cells as u32).collect();
            pins.shuffle(&mut rng);
            b.add_net(&pins[..size]).unwrap();
        }
        b.build()
    }

    #[test]
    fn all_depths_produce_balanced_bisections() {
        let nl = random_netlist(48, 64, 2);
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(8).unwrap(),
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let b = p.bisect(&nl, &mut rng);
            assert!(b.is_balanced(&nl), "{}", p.name());
            assert_eq!(b.cut(), b.recompute_cut(&nl), "{}", p.name());
        }
    }

    #[test]
    fn multilevel_finds_the_bridge() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(5);
        let p = NetlistPipeline::multilevel_fm_to(3)
            .unwrap()
            .bisect(&nl, &mut rng);
        assert_eq!(p.cut(), 1);
    }

    #[test]
    fn rejects_tiny_coarsest() {
        assert!(NetlistPipeline::multilevel_fm_to(1).is_err());
        assert!(NetlistPipeline::multilevel_fm_to(2).is_ok());
    }

    #[test]
    fn deterministic_across_runs_and_workspace_reuse() {
        let nl = random_netlist(60, 80, 9);
        let pipeline = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let mut ws = Workspace::new();
        let run = |ws: &mut Workspace| {
            let mut rng = StdRng::seed_from_u64(17);
            pipeline.bisect_counted(&nl, &mut rng, ws)
        };
        let (a, wa) = run(&mut ws);
        // Warm (differently sized) workspace must not change anything.
        let small = two_clusters();
        let mut srng = StdRng::seed_from_u64(1);
        let _ = pipeline.bisect_counted(&small, &mut srng, &mut ws);
        let (b, wb) = run(&mut ws);
        let (c, wc) = run(&mut Workspace::new());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(wa, wb);
        assert_eq!(wa, wc);
    }

    #[test]
    fn parallel_refiner_rides_the_projected_cache_protocol() {
        // ParallelNetlistFm opts into the projected cache, so the
        // engine initializes it once at the coarsest level and projects
        // it down the ladder; the result must be valid, balanced, and
        // deterministic at a fixed thread count.
        let nl = random_netlist(64, 90, 12);
        let pipeline = NetlistPipeline::new(
            CoarsenDepth::ToSize(8),
            crate::netlist::ParallelNetlistFm::new().with_threads(2),
            "PNetMLFM",
        )
        .unwrap();
        let run = || {
            let mut rng = StdRng::seed_from_u64(5);
            pipeline.bisect(&nl, &mut rng)
        };
        let a = run();
        assert!(a.is_balanced(&nl));
        assert_eq!(a.cut(), a.recompute_cut(&nl));
        assert_eq!(a, run());
        // And it never loses to the projected start it was handed: the
        // serial-FM pipeline at the same seed is a sanity yardstick.
        let serial = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let s = serial.bisect(&nl, &mut rng);
        assert!(a.cut() <= 2 * s.cut().max(4), "parallel cut far off serial");
    }

    #[test]
    fn fixed_cells_stay_put_through_every_depth() {
        let nl = random_netlist(40, 50, 4);
        let fixed = [(0u32, Side::A), (7u32, Side::B), (13u32, Side::B)];
        for p in [
            NetlistPipeline::flat_fm(),
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::multilevel_fm_to(6).unwrap(),
        ] {
            for seed in 0..6 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ws = Workspace::new();
                let (b, _) = p.bisect_fixed_counted(&nl, &fixed, &mut rng, &mut ws);
                for &(c, s) in &fixed {
                    assert_eq!(b.side(c), s, "{} seed {seed} cell {c}", p.name());
                }
                assert_eq!(b.cut(), b.recompute_cut(&nl), "{} seed {seed}", p.name());
            }
        }
    }

    /// One refiner call: which entry point, the level's cell count,
    /// whether the start passed `is_balanced`, and whether the fixed
    /// flags were empty or one per cell.
    type Call = (&'static str, usize, bool, bool);

    /// Delegates to `inner` and logs every call.
    struct Recording<R> {
        inner: R,
        log: Arc<Mutex<Vec<Call>>>,
    }

    impl<R: NetlistRefiner> Recording<R> {
        fn record(
            &self,
            entry: &'static str,
            nl: &Netlist,
            fixed: &[bool],
            init: &NetlistBisection,
        ) {
            let flags_fit = fixed.is_empty() || fixed.len() == nl.num_cells();
            let call = (entry, nl.num_cells(), init.is_balanced(nl), flags_fit);
            self.log.lock().expect("unpoisoned").push(call);
        }
    }

    impl<R: NetlistRefiner> NetlistRefiner for Recording<R> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn refine_counted(
            &self,
            nl: &Netlist,
            fixed: &[bool],
            init: NetlistBisection,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (NetlistBisection, u64) {
            self.record("refine", nl, fixed, &init);
            self.inner.refine_counted(nl, fixed, init, rng, ws)
        }

        fn wants_projected_cache(&self) -> bool {
            self.inner.wants_projected_cache()
        }

        fn refine_projected_counted(
            &self,
            nl: &Netlist,
            fixed: &[bool],
            init: NetlistBisection,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (NetlistBisection, u64) {
            self.record("projected", nl, fixed, &init);
            self.inner
                .refine_projected_counted(nl, fixed, init, rng, ws)
        }
    }

    /// `R` without the projected-cache opt-in, so the engine drives it
    /// through the plain rebalance-and-refine path.
    struct Plain<R>(R);

    impl<R: NetlistRefiner> NetlistRefiner for Plain<R> {
        fn name(&self) -> String {
            self.0.name()
        }

        fn refine_counted(
            &self,
            nl: &Netlist,
            fixed: &[bool],
            init: NetlistBisection,
            rng: &mut dyn RngCore,
            ws: &mut Workspace,
        ) -> (NetlistBisection, u64) {
            self.0.refine_counted(nl, fixed, init, rng, ws)
        }
    }

    /// Runs `base` with recording level and coarsest refiners wrapping
    /// `level` and `coarsest`, and checks the engine protocol: every
    /// start is balanced, the coarsest refiner runs once on the
    /// coarsest netlist, and the level refiner once per ladder level,
    /// coarsest first, through the projected-cache entry point exactly
    /// when it opts in. Fixed cells keep their sides.
    fn check_protocol<L, C>(
        nl: &Netlist,
        base: &NetlistPipeline,
        fixed: &[(VertexId, Side)],
        level: L,
        coarsest: C,
        seed: u64,
    ) where
        L: NetlistRefiner + Send + Sync + 'static,
        C: NetlistRefiner + Send + Sync + 'static,
    {
        let levels_log = Arc::new(Mutex::new(Vec::new()));
        let coarsest_log = Arc::new(Mutex::new(Vec::new()));
        let projected = level.wants_projected_cache();
        let pipeline = NetlistPipeline {
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
        let (p, _) = pipeline.bisect_fixed_counted(nl, fixed, &mut rng, &mut Workspace::new());
        let what = format!("{} {:?} seed {seed}", base.name(), base.depth);
        assert!(p.is_balanced(nl), "{what}");
        assert_eq!(p.cut(), p.recompute_cut(nl), "{what}");
        for &(c, s) in fixed {
            assert_eq!(p.side(c), s, "{what}: fixed cell {c} moved");
        }

        let mut fixed0 = vec![None; if fixed.is_empty() { 0 } else { nl.num_cells() }];
        for &(c, s) in fixed {
            fixed0[c as usize] = Some(s);
        }
        let (ladder, _) = coarsen(
            base.matching.as_ref(),
            base.depth,
            nl,
            fixed0,
            &mut StdRng::seed_from_u64(seed),
        );
        let coarsest_cells = ladder.last().map_or(nl, |c| c.coarse()).num_cells();
        let coarsest_calls = coarsest_log.lock().expect("unpoisoned").clone();
        assert_eq!(
            coarsest_calls,
            vec![("refine", coarsest_cells, true, true)],
            "{what}"
        );

        let level_calls = levels_log.lock().expect("unpoisoned").clone();
        let want = if projected { "projected" } else { "refine" };
        let expected: Vec<Call> = (0..ladder.len())
            .rev()
            .map(|i| {
                let cells = if i == 0 {
                    nl.num_cells()
                } else {
                    ladder[i - 1].coarse().num_cells()
                };
                (want, cells, true, true)
            })
            .collect();
        assert_eq!(level_calls, expected, "{what}");
    }

    #[test]
    fn every_refine_call_gets_a_balanced_start_once_per_level() {
        // 300 cells on 160 random nets: coarse cells are weighted (so
        // projection can unbalance a start) and some cells are netless
        // (so ToSizeOrStall stalls above its target).
        let nl = random_netlist(300, 160, 21);
        let fixed = [(0u32, Side::A), (150, Side::B), (299, Side::B)];
        let stall = NetlistPipeline::new(CoarsenDepth::ToSizeOrStall(8), NetlistFm::new(), "stall")
            .unwrap()
            .with_matching(crate::netlist::ParallelCellMatching::new().with_threads(2));
        let pipelines = [
            NetlistPipeline::multilevel_fm_to(8).unwrap(),
            stall,
            NetlistPipeline::compacted_fm(),
            NetlistPipeline::flat_fm(),
        ];
        let par = || crate::netlist::ParallelNetlistFm::new().with_threads(2);
        for seed in 0..3 {
            for base in &pipelines {
                for fixed in [&fixed[..], &[]] {
                    check_protocol(&nl, base, fixed, NetlistFm::new(), NetlistFm::new(), seed);
                    check_protocol(&nl, base, fixed, par(), NetlistFm::new(), seed);
                    check_protocol(&nl, base, fixed, NetlistFm::new(), par(), seed);
                    check_protocol(&nl, base, fixed, Plain(NetlistFm::new()), par(), seed);
                }
            }
        }
    }

    #[test]
    fn to_size_or_stall_drops_the_first_stalled_level() {
        let nl = random_netlist(300, 160, 21);
        let matching = crate::netlist::ParallelCellMatching::new().with_threads(1);
        let mut rng = StdRng::seed_from_u64(0);
        let ladder_of = |depth, rng: &mut StdRng| coarsen(&matching, depth, &nl, Vec::new(), rng).0;
        let stall = ladder_of(CoarsenDepth::ToSizeOrStall(2), &mut rng);
        let plain = ladder_of(CoarsenDepth::ToSize(2), &mut rng);
        assert!(!stall.is_empty());
        assert!(
            plain.len() > stall.len(),
            "{} vs {}",
            plain.len(),
            stall.len()
        );
        let mut before = nl.num_cells();
        for (kept, same) in stall.iter().zip(&plain) {
            let after = kept.coarse().num_cells();
            assert_eq!(after, same.coarse().num_cells());
            assert!(after * 20 <= before * 19, "{before} -> {after}");
            before = after;
        }
        let dropped = plain[stall.len()].coarse().num_cells();
        assert!(dropped * 20 > before * 19, "{before} -> {dropped}");
    }

    #[test]
    fn unset_coarsest_refiner_and_default_matching_are_the_plain_pipeline() {
        let nl = random_netlist(60, 80, 9);
        let plain = NetlistPipeline::multilevel_fm_to(8).unwrap();
        let spelled_out = plain
            .clone()
            .with_matching(crate::netlist::RandomCellMatching)
            .with_coarsest_refiner(NetlistFm::new());
        for seed in 0..4 {
            let a =
                plain.bisect_counted(&nl, &mut StdRng::seed_from_u64(seed), &mut Workspace::new());
            let b = spelled_out.bisect_counted(
                &nl,
                &mut StdRng::seed_from_u64(seed),
                &mut Workspace::new(),
            );
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_out_of_range_rejected() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = NetlistPipeline::flat_fm().bisect_fixed_counted(
            &nl,
            &[(99, Side::A)],
            &mut rng,
            &mut Workspace::new(),
        );
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn conflicting_fixed_sides_rejected() {
        let nl = two_clusters();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = NetlistPipeline::flat_fm().bisect_fixed_counted(
            &nl,
            &[(2, Side::A), (2, Side::B)],
            &mut rng,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn tiny_netlists_across_depths() {
        for n in 0..4usize {
            let nl = NetlistBuilder::new(n).build();
            for p in [
                NetlistPipeline::flat_fm(),
                NetlistPipeline::compacted_fm(),
                NetlistPipeline::multilevel_fm(),
            ] {
                let mut rng = StdRng::seed_from_u64(1);
                let b = p.bisect(&nl, &mut rng);
                assert_eq!(b.cut(), 0, "{} on {n} cells", p.name());
            }
        }
    }
}
