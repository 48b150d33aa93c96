//! Workloads, their inputs, and the jobs run over them.
//!
//! A job is one call through the library's public entry points:
//! reorder (where the job group has it) → bisect → map back. It is timed
//! as a whole; verification against the untouched input happens after
//! the clock stops.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bisect_core::error::BisectError;
use bisect_core::fm::BoundaryFm;
use bisect_core::kl::KernighanLin;
use bisect_core::netlist::{
    recursive_placement_counted, NetlistBisection, NetlistFm, NetlistPipeline, ParallelNetlistFm,
};
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::{
    CoarsenDepth, Pipeline, RandomInit, RandomMatching, WeightBalancedInit, DEFAULT_COARSEST_SIZE,
};
use bisect_core::sa::SimulatedAnnealing;
use bisect_core::workspace::Workspace;
use bisect_gen::g2set::{self, G2setParams};
use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::gnp::{self, GnpParams};
use bisect_gen::netlist::{self as rent, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::special;
use bisect_graph::hypergraph::{bfs_cell_order, permute_cells, Netlist};
use bisect_graph::{reorder, Graph};
use rand::SeedableRng;

use crate::oracle;
use crate::trace::{TracedCoarsen, TracedInitial, TracedNetlistRefiner, TracedRefiner, Tracer};

/// Worker threads of the parallel refiners (the benchmark host's core
/// count; every job is a single closed-loop caller).
pub const THREADS: usize = 2;

/// Coarsest size of the parallel netlist job's ladder.
pub const NETLIST_PAR_COARSEST: usize = 5_000;

/// Net-size power-law exponent of every Rent netlist.
const GAMMA: f64 = 1.8;

/// Largest net of every Rent netlist.
const MAX_NET: usize = 8;

/// Instances of each graph class in `paper-sparse`. A job's cut depends
/// on its instance as well as its start, so two instances per class
/// keep `cut_vs_oracle` steady across seeds. The ladder has no
/// randomness: its copies are equal.
const PAPER_COPIES: usize = 2;

/// Root of every job's rng seed and of the random-split oracles. It is
/// fixed, so `--seed` changes the generated inputs and nothing else.
const JOB_SEED: u64 = 0x5eed_b15e_c700_0011;

/// Starts of each multilevel pipeline on `graph-ladder`'s `Gnp`. A
/// V-cycle there takes between 0.5 and 7 s depending on the input and
/// start (see [`generate`]), so one start each keeps a round short
/// enough to be repeated within a run.
const GNP_STARTS: usize = 1;

/// Starts of each multilevel pipeline on `graph-ladder`'s `Gbreg`, whose
/// V-cycles take a steady 0.4–0.9 s. Four each make `Gbreg` four fifths of
/// the graph jobs, which damps the spread the `Gnp` jobs give both time
/// metrics across seeds, and keep two `large-inputs` rounds within about
/// a minute.
const GBREG_STARTS: usize = 4;

/// KL and CKL starts per `paper-sparse` instance. Each takes about
/// 15 ms, and their cuts are bimodal (a start either finds the planted
/// cut or misses it by two orders of magnitude), so `cut_vs_oracle`
/// needs many of them to be steady across seeds.
const PAPER_STARTS: usize = 32;

/// The benchmark's workloads. Each runs two job groups: the inputs
/// that fit in a core's cache and those that do not. A busy host slows
/// every job by up to half for tens of seconds at a time, so a run needs
/// about a minute and a repeat of every job, and only two workloads leave
/// room for that within the benchmark's time limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `paper-sparse` and `kway-placement`: inputs of at most 2·10^4 items.
    SmallInputs,
    /// `graph-ladder` and `netlist-ladder`: inputs of 10^5 items or more.
    LargeInputs,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::SmallInputs, Workload::LargeInputs];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallInputs => "small-inputs",
            Workload::LargeInputs => "large-inputs",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job groups the workload runs, in order.
    pub fn groups(self) -> [Group; 2] {
        match self {
            Workload::SmallInputs => [Group::PaperSparse, Group::KwayPlacement],
            Workload::LargeInputs => [Group::GraphLadder, Group::NetlistLadder],
        }
    }
}

/// A group of jobs that exercises one set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's serial KL/CKL/SA/CSA grid on sparse 5000-vertex graphs.
    PaperSparse,
    /// Multilevel V-cycles on BFS-reordered 2.5·10^5-vertex graphs.
    GraphLadder,
    /// Multilevel netlist bisection on BFS-reordered 10^5-cell netlists.
    NetlistLadder,
    /// Recursive k-way placement with terminal propagation.
    KwayPlacement,
}

impl Group {
    /// The name in job rows.
    pub fn name(self) -> &'static str {
        match self {
            Group::PaperSparse => "paper-sparse",
            Group::GraphLadder => "graph-ladder",
            Group::NetlistLadder => "netlist-ladder",
            Group::KwayPlacement => "kway-placement",
        }
    }

    /// The pipelines run on each of the group's instances, and whether
    /// their jobs BFS-reorder the input first.
    fn algos(self) -> (&'static [Algo], bool) {
        match self {
            Group::PaperSparse => (&[Algo::Kl, Algo::Ckl, Algo::Sa, Algo::Csa], false),
            Group::GraphLadder => (&[Algo::MlBoundaryFm, Algo::MlParallelFm], true),
            Group::NetlistLadder => (&[Algo::NetMlFm, Algo::NetParallelFm], true),
            Group::KwayPlacement => (&[Algo::Placement(16), Algo::Placement(64)], false),
        }
    }
}

/// A generated input.
pub enum Input {
    /// A graph.
    Graph(Graph),
    /// A netlist (hypergraph).
    Netlist(Netlist),
}

/// The reference partition a job's cut is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Items `< n/2` on one side: the planted cut of `Gbreg`/`G2set`,
    /// the line split of a local Rent netlist.
    Half,
    /// The middle split of a ladder: two rail edges.
    Ladder,
    /// A seeded random balanced split (nothing is planted).
    Random,
    /// The contiguous-block k-way split.
    Blocks,
}

/// One named input with its oracle.
pub struct Instance {
    /// The job group the input belongs to.
    pub group: Group,
    /// Display name, e.g. `Gbreg(5000,8,3)`.
    pub name: String,
    /// The input itself.
    pub input: Input,
    /// Which reference partition applies.
    pub oracle: Oracle,
    /// Independent starts (jobs with their own rng seed) of each
    /// multi-start pipeline on this instance; see [`starts`].
    pub starts: usize,
}

impl Instance {
    /// Vertex or cell count.
    pub fn size(&self) -> usize {
        match &self.input {
            Input::Graph(g) => g.num_vertices(),
            Input::Netlist(nl) => nl.num_cells(),
        }
    }
}

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `Pipeline::kl()`.
    Kl,
    /// `Pipeline::ckl()`.
    Ckl,
    /// `Pipeline::sa()`.
    Sa,
    /// `Pipeline::csa()`.
    Csa,
    /// `Pipeline::multilevel(BoundaryFm::new())`.
    MlBoundaryFm,
    /// `Pipeline::multilevel(ParallelFm::new().with_boundary_seeds().with_threads(2))`.
    MlParallelFm,
    /// `NetlistPipeline::multilevel_fm()`.
    NetMlFm,
    /// `NetlistPipeline::new(ToSize(5000), ParallelNetlistFm::new().with_threads(2), ..)`.
    NetParallelFm,
    /// `recursive_placement_counted(&NetlistPipeline::multilevel_fm(), .., parts)`.
    Placement(usize),
}

impl Algo {
    /// Display name of the pipeline.
    pub fn label(self) -> String {
        match self {
            Algo::Kl => "KL".into(),
            Algo::Ckl => "CKL".into(),
            Algo::Sa => "SA".into(),
            Algo::Csa => "CSA".into(),
            Algo::MlBoundaryFm => "ML-BoundaryFM".into(),
            Algo::MlParallelFm => "ML-ParallelFM".into(),
            Algo::NetMlFm => "NetMLFM".into(),
            Algo::NetParallelFm => "NetPFM".into(),
            Algo::Placement(k) => format!("Place{k}-NetMLFM"),
        }
    }
}

/// One entry of a workload's fixed job list.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into the workload's instances.
    pub instance: usize,
    /// The pipeline.
    pub algo: Algo,
    /// Whether the job BFS-reorders its input first.
    pub reorder: bool,
    /// Seed of the job's rng (the same in every round and for every `--seed`).
    pub seed: u64,
    /// The oracle's cut on this instance (k-way for placement).
    pub oracle: u64,
    /// Whether the job counts toward the end-to-end metrics; see [`gated`].
    pub gated: bool,
}

fn gen_rng(seed: u64, which: u64) -> LaggedFibonacci {
    LaggedFibonacci::seed_from_u64(oracle::derive(seed, &[0x6e, which]))
}

fn graph(group: Group, name: String, g: Graph, oracle: Oracle, starts: usize) -> Instance {
    Instance {
        group,
        name,
        input: Input::Graph(g),
        oracle,
        starts,
    }
}

fn netlist(group: Group, name: String, nl: Netlist, oracle: Oracle, starts: usize) -> Instance {
    Instance {
        group,
        name,
        input: Input::Netlist(nl),
        oracle,
        starts,
    }
}

fn rent_netlist(seed: u64, which: u64, cells: usize, locality: f64) -> Result<Netlist, String> {
    let nets = cells * 14 / 10;
    let params =
        RentNetlistParams::new(cells, nets, MAX_NET, GAMMA, locality).map_err(|e| e.to_string())?;
    Ok(rent::sample_streamed(&mut gen_rng(seed, which), &params))
}

/// Generates and builds every input of `w` from `seed`. This is the
/// work `setup_s` times.
///
/// # Errors
///
/// A generator error (none occurs for the fixed sizes used here).
pub fn generate(w: Workload, seed: u64) -> Result<Vec<Instance>, String> {
    let mut out = Vec::new();
    for group in w.groups() {
        out.extend(generate_group(group, seed)?);
    }
    Ok(out)
}

fn generate_group(group: Group, seed: u64) -> Result<Vec<Instance>, String> {
    let e = |err: bisect_gen::GenError| err.to_string();
    let graph = |name, g, oracle, starts| graph(group, name, g, oracle, starts);
    let netlist = |name, nl, oracle, starts| netlist(group, name, nl, oracle, starts);
    Ok(match group {
        Group::PaperSparse => {
            let g2 = G2setParams::with_average_degree(5_000, 3.0, 16).map_err(e)?;
            let mut out = Vec::new();
            for copy in 0..PAPER_COPIES {
                let which = 4 * copy as u64;
                let gb = |which, d| -> Result<Graph, String> {
                    let params = GbregParams::new(5_000, 8, d).map_err(e)?;
                    gbreg::sample(&mut gen_rng(seed, which), &params).map_err(e)
                };
                out.extend([
                    graph(
                        format!("Gbreg(5000,8,3)#{copy}"),
                        gb(which, 3)?,
                        Oracle::Half,
                        PAPER_STARTS,
                    ),
                    graph(
                        format!("Gbreg(5000,8,4)#{copy}"),
                        gb(which + 1, 4)?,
                        Oracle::Half,
                        PAPER_STARTS,
                    ),
                    graph(
                        format!("G2set(5000,deg3,16)#{copy}"),
                        g2set::sample(&mut gen_rng(seed, which + 2), &g2),
                        Oracle::Half,
                        PAPER_STARTS,
                    ),
                    graph(
                        format!("ladder(2500)#{copy}"),
                        special::ladder(2_500),
                        Oracle::Ladder,
                        PAPER_STARTS,
                    ),
                ]);
            }
            out
        }
        // A V-cycle's wall time on Gnp varies up to 7× with the input and
        // start (BoundaryFm 2.3–7.0 s, ParallelFm 0.5–3.7 s over five
        // seeds × three starts, fastest of two repetitions each): random matching stalls on unmatched vertices for a
        // varying number of levels, and some runs leave the finest level
        // far enough out of balance that the engine's rebalance, which
        // scans the heavy side once per move, dominates.
        Group::GraphLadder => {
            let gnp_params = GnpParams::with_average_degree(250_000, 3.0).map_err(e)?;
            let gb_params = GbregParams::new(250_000, 64, 4).map_err(e)?;
            vec![
                graph(
                    "Gnp(250000,deg3)".into(),
                    gnp::sample_streamed(&mut gen_rng(seed, 10), &gnp_params),
                    Oracle::Random,
                    GNP_STARTS,
                ),
                graph(
                    "Gbreg(250000,64,4)".into(),
                    gbreg::sample(&mut gen_rng(seed, 11), &gb_params).map_err(e)?,
                    Oracle::Half,
                    GBREG_STARTS,
                ),
            ]
        }
        Group::NetlistLadder => vec![
            netlist(
                "Rent(100000,loc2%)".into(),
                rent_netlist(seed, 20, 100_000, 0.02)?,
                Oracle::Half,
                1,
            ),
            netlist(
                "Rent(100000,global)".into(),
                rent_netlist(seed, 21, 100_000, 1.0)?,
                Oracle::Random,
                1,
            ),
        ],
        Group::KwayPlacement => vec![netlist(
            "Rent(20000,loc2%)".into(),
            rent_netlist(seed, 30, 20_000, 0.02)?,
            Oracle::Blocks,
            1,
        )],
    })
}

/// The oracle's cut of `algo` on `inst` (`seed` draws the random split).
pub fn oracle_cut(inst: &Instance, algo: Algo, seed: u64) -> u64 {
    let n = inst.size();
    match (&inst.input, inst.oracle) {
        (Input::Graph(g), Oracle::Ladder) => oracle::graph_cut(g, &oracle::ladder_split(n / 2)),
        (Input::Graph(g), Oracle::Half) => oracle::graph_cut(g, &oracle::half_split(n)),
        (Input::Graph(g), _) => oracle::graph_cut(g, &oracle::random_split(n, seed)),
        (Input::Netlist(nl), Oracle::Half) => oracle::net_cut(nl, &oracle::half_split(n)),
        (Input::Netlist(nl), Oracle::Blocks) => {
            let parts = match algo {
                Algo::Placement(k) => k,
                _ => 2,
            };
            oracle::kway_net_cut(nl, &oracle::block_labels(n, parts))
        }
        (Input::Netlist(nl), _) => oracle::net_cut(nl, &oracle::random_split(n, seed)),
    }
}

/// The fixed job list over `instances`, with oracles. Job seeds and
/// random-split oracles depend on the job's position only.
pub fn jobs(instances: &[Instance]) -> Vec<Job> {
    let mut out = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let oracle_seed = oracle::derive(JOB_SEED, &[0x0c, i as u64]);
        let (algos, reorder) = inst.group.algos();
        for &algo in algos {
            for _ in 0..starts(inst, algo) {
                let id = out.len() as u64;
                out.push(Job {
                    instance: i,
                    algo,
                    reorder,
                    seed: oracle::derive(JOB_SEED, &[0x10b, id]),
                    oracle: oracle_cut(inst, algo, oracle_seed),
                    gated: gated(inst, algo),
                });
            }
        }
    }
    out
}

/// Jobs per pipeline on `inst`: its `starts`, except one for SA and
/// CSA, whose cuts vary far less between starts than KL's and CKL's and
/// which take about 0.5 s each.
pub fn starts(inst: &Instance, algo: Algo) -> usize {
    match algo {
        Algo::Sa | Algo::Csa => 1,
        _ => inst.starts,
    }
}

/// Whether `algo` on `inst` counts toward the end-to-end metrics. Every
/// job does except `ParallelNetlistFm` on the local Rent netlist: its cut
/// there swings between about the line split and 37× it with the input
/// and start, and its time between 1 and 8 s, so no run length keeps
/// `solve_s` or `cut_vs_oracle` within a bound with it. It still runs and
/// is verified like every job, its row shows its cut and oracle, and the
/// traced run reports it as `netlist.par_fm.local_cut_vs_oracle`. As its
/// time is not measured, it runs in the first round of a traced run only.
pub fn gated(inst: &Instance, algo: Algo) -> bool {
    !(algo == Algo::NetParallelFm && inst.oracle == Oracle::Half)
}

/// A ready-to-run pipeline.
pub enum Built {
    /// A graph bisection pipeline.
    Graph(Pipeline),
    /// A netlist bisection pipeline (placement reuses it per sub-bisection).
    Netlist(NetlistPipeline),
}

/// The library pipeline `algo` runs — exactly the public descriptor
/// when `tracer` is `None`, and the same stages behind transparent
/// wrappers otherwise.
///
/// # Errors
///
/// A configuration error from the library (none for these configurations).
pub fn pipeline(algo: Algo, tracer: Option<&Arc<Tracer>>) -> Result<Built, BisectError> {
    let Some(t) = tracer else {
        return Ok(match algo {
            Algo::Kl => Built::Graph(Pipeline::kl()),
            Algo::Ckl => Built::Graph(Pipeline::ckl()),
            Algo::Sa => Built::Graph(Pipeline::sa()),
            Algo::Csa => Built::Graph(Pipeline::csa()),
            Algo::MlBoundaryFm => Built::Graph(Pipeline::multilevel(BoundaryFm::new())),
            Algo::MlParallelFm => Built::Graph(Pipeline::multilevel(
                ParallelFm::new()
                    .with_boundary_seeds()
                    .with_threads(THREADS),
            )),
            Algo::NetMlFm | Algo::Placement(_) => Built::Netlist(NetlistPipeline::multilevel_fm()),
            Algo::NetParallelFm => Built::Netlist(NetlistPipeline::new(
                CoarsenDepth::ToSize(NETLIST_PAR_COARSEST),
                ParallelNetlistFm::new().with_threads(THREADS),
                "NetPFM",
            )?),
        });
    };
    let coarsen = || TracedCoarsen::new(RandomMatching, t.clone());
    let weighted = || TracedInitial::new(WeightBalancedInit, t.clone());
    let kl = || TracedRefiner::new(KernighanLin::new(), "kl", t.clone());
    let sa = || TracedRefiner::new(SimulatedAnnealing::new(), "sa", t.clone());
    let flat = |p: Pipeline| {
        p.with_coarsener(coarsen())
            .with_initial(TracedInitial::new(RandomInit, t.clone()))
    };
    // Pipeline::compacted and Pipeline::multilevel share these stages.
    let matched = |p: Pipeline| p.with_coarsener(coarsen()).with_initial(weighted());
    Ok(match algo {
        Algo::Kl => Built::Graph(flat(Pipeline::flat(kl()))),
        Algo::Ckl => Built::Graph(matched(Pipeline::compacted(kl()))),
        Algo::Sa => Built::Graph(flat(Pipeline::flat(sa()))),
        Algo::Csa => Built::Graph(matched(Pipeline::compacted(sa()))),
        Algo::MlBoundaryFm => Built::Graph(matched(Pipeline::multilevel(TracedRefiner::new(
            BoundaryFm::new(),
            "fm",
            t.clone(),
        )))),
        Algo::MlParallelFm => Built::Graph(matched(Pipeline::multilevel(TracedRefiner::new(
            ParallelFm::new()
                .with_boundary_seeds()
                .with_threads(THREADS),
            "par_fm",
            t.clone(),
        )))),
        Algo::NetMlFm | Algo::Placement(_) => Built::Netlist(NetlistPipeline::new(
            CoarsenDepth::ToSize(DEFAULT_COARSEST_SIZE),
            TracedNetlistRefiner::new(NetlistFm::new(), "netlist.fm", t.clone()),
            "NetMLFM",
        )?),
        Algo::NetParallelFm => Built::Netlist(NetlistPipeline::new(
            CoarsenDepth::ToSize(NETLIST_PAR_COARSEST),
            TracedNetlistRefiner::new(
                ParallelNetlistFm::new().with_threads(THREADS),
                "netlist.par_fm",
                t.clone(),
            ),
            "NetPFM",
        )?),
    })
}

/// A job's raw result, before verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw {
    /// Sides (bisection) or part labels (placement) in the input's own
    /// numbering, as `u32` (`0`/`1` for sides).
    pub labels: Vec<u32>,
    /// The cut the library reported.
    pub cut: u64,
    /// The library's work count (`*_counted`).
    pub work: u64,
}

fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

fn sides_to_labels(sides: &[bool]) -> Vec<u32> {
    sides.iter().map(|&s| u32::from(s)).collect()
}

/// Runs one job: reorder (if the job has it) → bisect → map back.
///
/// # Errors
///
/// A library error, or a relabeling that is not a permutation.
pub fn execute(
    job: &Job,
    inst: &Instance,
    built: &Built,
    tracer: Option<&Tracer>,
) -> Result<Raw, String> {
    let mut rng = LaggedFibonacci::seed_from_u64(job.seed);
    let mut ws = Workspace::new();
    match (&inst.input, built, job.algo) {
        (Input::Graph(g), Built::Graph(p), _) => {
            if !job.reorder {
                let (b, work) = span(tracer, "engine", || {
                    p.try_bisect_counted(g, &mut rng, &mut ws)
                })
                .map_err(|e| e.to_string())?;
                return Ok(Raw {
                    labels: sides_to_labels(b.sides()),
                    cut: b.cut(),
                    work,
                });
            }
            let (order, gr) = span(tracer, "reorder", || {
                let order = reorder::bfs(g);
                let gr = order.apply(g);
                (order, gr)
            });
            let (b, work) = span(tracer, "engine", || {
                p.try_bisect_counted(&gr, &mut rng, &mut ws)
            })
            .map_err(|e| e.to_string())?;
            if b.sides().len() != order.len() {
                return Err(format!(
                    "{} sides for {} vertices",
                    b.sides().len(),
                    order.len()
                ));
            }
            Ok(Raw {
                labels: sides_to_labels(&order.to_old_sides(b.sides())),
                cut: b.cut(),
                work,
            })
        }
        (Input::Netlist(nl), Built::Netlist(p), Algo::Placement(parts)) => {
            let (placement, work) = span(tracer, "netlist.kway", || {
                recursive_placement_counted(p, nl, parts, &mut rng, &mut ws)
            })
            .map_err(|e| e.to_string())?;
            Ok(Raw {
                labels: placement.labels().to_vec(),
                cut: placement.net_cut(nl),
                work,
            })
        }
        (Input::Netlist(nl), Built::Netlist(p), _) => {
            let bisect = |nl: &Netlist, rng: &mut LaggedFibonacci, ws: &mut Workspace| {
                span(tracer, "netlist.engine", || p.bisect_counted(nl, rng, ws))
            };
            if !job.reorder {
                let (b, work) = bisect(nl, &mut rng, &mut ws);
                return Ok(Raw {
                    labels: sides_to_labels(b.sides()),
                    cut: b.cut(),
                    work,
                });
            }
            let (order, nlr) = span(tracer, "reorder", || {
                let order = bfs_cell_order(nl);
                let nlr = permute_cells(nl, &order);
                (order, nlr)
            });
            let (b, work) = bisect(&nlr, &mut rng, &mut ws);
            let old = oracle::map_back(b.sides(), &order)
                .ok_or_else(|| "cell reordering is not a permutation".to_string())?;
            Ok(Raw {
                labels: sides_to_labels(&old),
                cut: b.cut(),
                work,
            })
        }
        _ => Err(format!(
            "{} does not apply to {}",
            job.algo.label(),
            inst.name
        )),
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Balanced, right length, reported cut equals the recount.
    Ok,
    /// The library returned an error.
    Error(String),
    /// The job panicked.
    Panic(String),
    /// The result has the wrong length or an out-of-range label.
    Length,
    /// The result is not balanced per the library's `is_balanced`.
    Unbalanced,
    /// The reported cut differs from the recount on the untouched input.
    CutMismatch {
        /// What the library reported.
        reported: u64,
        /// What the benchmark counted.
        recount: u64,
    },
    /// A repetition of the job, or its traced twin, returned a
    /// different result.
    Nondeterministic,
}

impl Verdict {
    /// Whether the job passed.
    pub fn is_ok(&self) -> bool {
        *self == Verdict::Ok
    }

    /// A one-word summary for the job table.
    pub fn tag(&self) -> String {
        match self {
            Verdict::Ok => "ok".into(),
            Verdict::Error(e) => format!("error:{}", e.replace(['\t', '\n'], " ")),
            Verdict::Panic(e) => format!("panic:{}", e.replace(['\t', '\n'], " ")),
            Verdict::Length => "wrong-length".into(),
            Verdict::Unbalanced => "unbalanced".into(),
            Verdict::CutMismatch { reported, recount } => {
                format!("cut-mismatch:{reported}!={recount}")
            }
            Verdict::Nondeterministic => "nondeterministic".into(),
        }
    }
}

/// Runs `job`, catching panics, and returns the raw result with the
/// wall time of the call alone.
pub fn run_timed(
    job: &Job,
    inst: &Instance,
    built: &Built,
    tracer: Option<&Tracer>,
) -> (Result<Raw, Verdict>, f64) {
    // lint: allow(determinism-time) — job wall time is the measured quantity
    let begin = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        span(tracer, "job", || execute(job, inst, built, tracer))
    }));
    let wall = begin.elapsed().as_secs_f64();
    let result = match out {
        Ok(Ok(raw)) => Ok(raw),
        Ok(Err(e)) => Err(Verdict::Error(e)),
        Err(payload) => {
            if let Some(t) = tracer {
                t.close_all();
            }
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(Verdict::Panic(msg))
        }
    };
    (result, wall)
}

/// Checks `raw` against the untouched input: length, balance (the
/// library's own `is_balanced`; for placement, every part within the
/// recursion's accumulated per-split tolerance of `W/k`), and the
/// reported cut against the benchmark's recount.
pub fn verify(job: &Job, inst: &Instance, raw: &Raw) -> Verdict {
    let n = inst.size();
    if raw.labels.len() != n {
        return Verdict::Length;
    }
    let (recount, balanced) = match (&inst.input, job.algo) {
        (Input::Netlist(nl), Algo::Placement(parts)) => {
            if raw.labels.iter().any(|&l| l as usize >= parts) {
                return Verdict::Length;
            }
            let mut weight = vec![0u64; parts];
            for c in nl.cells() {
                weight[raw.labels[c as usize] as usize] += nl.cell_weight(c);
            }
            let max_w = nl.cells().map(|c| nl.cell_weight(c)).max().unwrap_or(0);
            let levels = u64::from(parts.trailing_zeros());
            let total = nl.total_cell_weight() as f64;
            let slack = (levels * max_w) as f64;
            let balanced = weight
                .iter()
                .all(|&w| (w as f64 - total / parts as f64).abs() <= slack);
            (oracle::kway_net_cut(nl, &raw.labels), balanced)
        }
        _ => {
            if raw.labels.iter().any(|&l| l > 1) {
                return Verdict::Length;
            }
            let sides: Vec<bool> = raw.labels.iter().map(|&l| l == 1).collect();
            match &inst.input {
                Input::Graph(g) => {
                    let balanced = Bisection::from_sides(g, sides.clone())
                        .map(|b| b.is_balanced(g))
                        .unwrap_or(false);
                    (oracle::graph_cut(g, &sides), balanced)
                }
                Input::Netlist(nl) => {
                    let balanced = NetlistBisection::from_sides(nl, sides.clone())
                        .map(|b| b.is_balanced(nl))
                        .unwrap_or(false);
                    (oracle::net_cut(nl, &sides), balanced)
                }
            }
        }
    };
    if !balanced {
        return Verdict::Unbalanced;
    }
    if recount != raw.cut {
        return Verdict::CutMismatch {
            reported: raw.cut,
            recount,
        };
    }
    Verdict::Ok
}
