//! The `huge-netlist` experiment: million-cell netlist bisection
//! feasibility — the hypergraph twin of the [`huge`](super::huge)
//! graph experiment.
//!
//! Two Rent-style netlists (one locality-clustered, one global) at
//! [`Profile::huge_netlist_shape`] cells each go through the
//! cache-conscious large-instance pipeline:
//!
//! 1. **streaming generation** —
//!    [`bisect_gen::netlist::sample_streamed`] feeds the two-pass
//!    counting-sorted pin-CSR build
//!    ([`NetlistBuilder::stream`](bisect_graph::hypergraph::NetlistBuilder::stream))
//!    and never materializes the flat pin list;
//! 2. **BFS cell reordering**
//!    ([`bisect_graph::hypergraph::bfs_cell_order`]) so refinement
//!    walks near-contiguous pin arrays;
//! 3. **parallel multilevel bisection** — one [`NetlistPipeline`]
//!    descriptor (see [`pipeline`]):
//!    [`ParallelCellMatching`](bisect_core::netlist::ParallelCellMatching)
//!    coarsening down to [`coarse_target`] cells or the first level
//!    that shrinks by less than 5%, a weight-balanced random start
//!    refined by serial hill-crossing
//!    [`NetlistFm`](bisect_core::netlist::NetlistFm) on the coarsest
//!    netlist, then boundary-seeded
//!    [`ParallelNetlistFm`](bisect_core::netlist::ParallelNetlistFm) on
//!    every level above it, riding the gain cache the engine projects
//!    through each contraction;
//! 4. **inverse mapping** back to the original cell labels, with the
//!    net cut re-verified on the untouched input netlist.
//!
//! Reported per instance: net cut, wall time, refinement rounds, gain
//! evaluations per second, end-to-end cell throughput, and the process
//! peak RSS so far. Results are deterministic at a fixed thread count
//! (see the `ParallelNetlistFm` determinism contract); they are not part
//! of the golden-pinned paper tables.

use std::time::Instant;

use bisect_core::netlist::{
    NetlistBisection, NetlistFm, NetlistPipeline, ParallelCellMatching, ParallelNetlistFm,
};
use bisect_core::pipeline::CoarsenDepth;
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::{bfs_cell_order, permute_cells, Netlist};
use rand::SeedableRng;

use super::huge::peak_rss_bytes;
use super::{coarse_target, derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_cut, fmt_duration, Table};

/// Net-size power-law exponent of both instances: mass concentrated on
/// 2- and 3-pin nets, as in real netlists.
const GAMMA: f64 = 1.8;

/// Runs the huge-netlist feasibility experiment.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if the Rent parameters are rejected
/// (impossible for the shapes the profiles produce).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let (cells, nets) = profile.huge_netlist_shape();
    let threads = bisect_par::num_threads();
    let mut table = Table::new(
        format!("Huge-netlist feasibility: {cells} cells, {nets} nets, {threads} threads"),
        [
            "netlist", "algo", "net cut", "time", "rounds", "Mprop/s", "kcell/s", "peak RSS",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for (which, locality, label, setting) in [
        (
            0u64,
            0.02f64,
            format!("Rent({cells}, loc 2%)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=0.02"),
        ),
        (
            1u64,
            1.0f64,
            format!("Rent({cells}, global)"),
            format!("rent cells={cells} nets={nets} gamma={GAMMA} loc=1"),
        ),
    ] {
        let (nl, seed) = instance(profile, which, locality)?;
        let begin = Instant::now();
        let outcome = bisect_huge_netlist(&nl, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            outcome.proposals as f64 / total_time_s
        } else {
            0.0
        };
        let cells_per_sec = if total_time_s > 0.0 {
            cells as f64 / total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            "PNetFM".into(),
            fmt_cut(outcome.cut as f64),
            fmt_duration(elapsed),
            outcome.rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            format!("{:.0}", cells_per_sec / 1.0e3),
            super::huge::fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge-netlist".into(),
            setting,
            algorithm: "PNetFM".into(),
            mean_cut: outcome.cut as f64,
            total_time_s,
            mean_passes: outcome.rounds as f64,
            proposals: outcome.proposals as f64,
            proposals_per_sec,
            refine_time_s: 0.0,
            hpwl: 0.0,
            graphs: 1,
        });
    }
    Ok(ExperimentResult {
        id: "huge-netlist".into(),
        title: "Million-cell netlist feasibility: streaming pin-CSR build, BFS cell reorder, \
                parallel multilevel"
            .into(),
        tables: vec![table],
        records,
    })
}

/// The profile's instance number `which` at the given net locality,
/// with the seed its bisection derives from.
fn instance(profile: &Profile, which: u64, locality: f64) -> Result<(Netlist, u64), BenchError> {
    let (cells, nets) = profile.huge_netlist_shape();
    let seed = derive_seed(profile.seed, &[41, cells as u64, which]);
    let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
    let params = RentNetlistParams::new(cells, nets, 8.min(cells), GAMMA, locality)?;
    Ok((sample_streamed(&mut gen_rng, &params), seed))
}

/// Result of one huge netlist bisection.
struct HugeNetlistOutcome {
    cut: u64,
    rounds: u64,
    proposals: u64,
}

/// The huge ladder for an `n`-cell netlist at `threads` workers.
fn pipeline(n: usize, threads: usize) -> NetlistPipeline {
    NetlistPipeline::new(
        CoarsenDepth::ToSizeOrStall(coarse_target(n)),
        ParallelNetlistFm::new().with_threads(threads),
        "PNetFM",
    )
    .expect("coarse_target is at least 64")
    .with_matching(ParallelCellMatching::new().with_threads(threads))
    .with_coarsest_refiner(NetlistFm::new())
}

/// BFS cell reorder → [`pipeline`] → map back. The returned net cut is
/// re-verified on the *original* netlist, so the relabeling is provably
/// cut-preserving in every run, not just in tests.
fn bisect_huge_netlist(nl: &Netlist, seed: u64, threads: usize) -> HugeNetlistOutcome {
    let order = bfs_cell_order(nl);
    let nlr = permute_cells(nl, &order);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let (refined, rounds) =
        pipeline(nl.num_cells(), threads).bisect_counted(&nlr, &mut rng, &mut ws);

    let mut old_sides = vec![false; nl.num_cells()];
    for (new, &old) in order.iter().enumerate() {
        old_sides[old as usize] = refined.sides()[new];
    }
    let original =
        NetlistBisection::from_sides(nl, old_sides).expect("inverse mapping is a permutation");
    assert_eq!(
        original.cut(),
        refined.cut(),
        "relabeling must preserve the net cut"
    );
    HugeNetlistOutcome {
        cut: original.cut(),
        rounds,
        proposals: ws.take_proposals(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Scale;

    #[test]
    fn smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run(&profile).expect("huge-netlist experiment at smoke scale");
        assert_eq!(result.id, "huge-netlist");
        assert_eq!(result.records.len(), 2);
        for r in &result.records {
            assert_eq!(r.algorithm, "PNetFM");
            assert!(r.mean_cut >= 0.0);
            assert!(r.graphs == 1);
        }
        // The locality-clustered instance confines nets to 2% windows,
        // so a good bisection cuts far fewer nets than the global one.
        assert!(
            result.records[0].mean_cut < result.records[1].mean_cut,
            "local {} vs global {}",
            result.records[0].mean_cut,
            result.records[1].mean_cut
        );
        assert_eq!(result.tables.len(), 1);
        assert_eq!(result.tables[0].rows().len(), 2);
    }

    #[test]
    fn deterministic_at_fixed_threads() {
        let params = RentNetlistParams::new(1500, 2100, 6, GAMMA, 0.1).unwrap();
        let nl = sample_streamed(&mut LaggedFibonacci::seed_from_u64(7), &params);
        let a = bisect_huge_netlist(&nl, 123, 4);
        let b = bisect_huge_netlist(&nl, 123, 4);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.proposals, b.proposals);
    }

    #[test]
    fn ladder_beats_the_line_split_on_the_local_instances() {
        // Oracle gate: with nets confined to 2% windows of the cell
        // line, splitting the line in the middle (cells < n/2 vs ≥ n/2)
        // cuts only the nets straddling it. A ladder that refines at
        // all must beat that trivial split on the experiment's own
        // locality instances (10^4 and 10^5 cells).
        for profile in [Profile::quick(), Profile::huge_smoke()] {
            let (nl, seed) = instance(&profile, 0, 0.02).unwrap();
            let n = nl.num_cells();
            let line = NetlistBisection::from_sides(&nl, (0..n).map(|c| c >= n / 2).collect())
                .expect("one side per cell");
            let outcome = bisect_huge_netlist(&nl, seed ^ 0xABCD, 2);
            assert!(
                outcome.cut < line.cut(),
                "{n} cells: ladder cut {} vs line split {}",
                outcome.cut,
                line.cut()
            );
        }
    }

    #[test]
    fn ladder_stays_within_a_quarter_of_serial_multilevel_fm() {
        // Oracle gate: on both huge-smoke Rent instances (10^5 cells),
        // the parallel ladder at 2 threads cuts at most 1.25× what the
        // serial multilevel netlist FM cuts on the same reordered
        // input.
        let profile = Profile::huge_smoke();
        for (which, locality) in [(0u64, 0.02f64), (1, 1.0)] {
            let (nl, seed) = instance(&profile, which, locality).unwrap();
            let outcome = bisect_huge_netlist(&nl, seed ^ 0xABCD, 2);
            let nlr = permute_cells(&nl, &bfs_cell_order(&nl));
            let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xABCD);
            let serial = NetlistPipeline::multilevel_fm().bisect(&nlr, &mut rng);
            assert!(
                outcome.cut * 4 <= serial.cut() * 5,
                "locality {locality}: ladder cut {} vs serial NetMLFM {}",
                outcome.cut,
                serial.cut()
            );
        }
    }

    #[test]
    fn huge_netlist_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_netlist_shape(), (100_000, 140_000));
        assert_eq!(p.starts, 1);
    }
}
