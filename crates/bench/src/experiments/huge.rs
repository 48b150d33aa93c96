//! The `huge` experiment: million-vertex bisection feasibility.
//!
//! One `Gbreg` and one `Gnp` instance at [`Profile::huge_vertices`]
//! vertices each go through the cache-conscious large-instance
//! pipeline:
//!
//! 1. **streaming generation** — `Gnp` uses
//!    [`bisect_gen::gnp::sample_streamed`], which never materializes an
//!    edge list (`Gbreg`'s generator streams its staged pair lists
//!    internally);
//! 2. **BFS vertex reordering** ([`bisect_graph::reorder::bfs`]) so
//!    refinement walks near-contiguous adjacency;
//! 3. **parallel multilevel bisection** — one [`Pipeline`] descriptor
//!    (see [`pipeline`]):
//!    [`ParallelMatching`](bisect_core::pipeline::ParallelMatching)
//!    (heavy-edge) coarsening down to [`coarse_target`] vertices or the
//!    first level that shrinks by less than 5%, a weight-balanced
//!    random start refined by serial hill-crossing
//!    [`BoundaryFm`](bisect_core::fm::BoundaryFm) on the coarsest
//!    graph, then boundary-seeded
//!    [`ParallelFm`](bisect_core::par_fm::ParallelFm) on every level
//!    above it, riding the gain cache the engine projects through each
//!    contraction;
//! 4. **inverse mapping** back to the original vertex labels, with the
//!    cut re-verified on the untouched input graph.
//!
//! Reported per instance: cut, wall time, refinement rounds, gain
//! evaluations per second, and the process peak RSS so far. Results are
//! deterministic at a fixed thread count (see the `ParallelFm`
//! determinism contract); they are not part of the golden-pinned paper
//! tables.

use std::time::Instant;

use bisect_core::bisector::Bisector;
use bisect_core::fm::BoundaryFm;
use bisect_core::par_fm::ParallelFm;
use bisect_core::partition::Bisection;
use bisect_core::pipeline::{CoarsenDepth, ParallelMatching, Pipeline};
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::{reorder, Graph};
use rand::SeedableRng;

use super::{coarse_target, derive_seed, ExperimentResult};
use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::table::{fmt_cut, fmt_duration, Table};

/// Runs the huge-instance feasibility experiment.
///
/// # Errors
///
/// Returns [`BenchError::Gen`] if instance generation fails (for the
/// fixed `d = 4`, `b = 64` parameters this is vanishingly rare).
pub fn run(profile: &Profile) -> Result<ExperimentResult, BenchError> {
    let n = profile.huge_vertices();
    let threads = bisect_par::num_threads();
    let mut table = Table::new(
        format!("Huge-instance feasibility: {n} vertices, {threads} threads"),
        [
            "graph", "algo", "cut", "time", "rounds", "Mprop/s", "peak RSS",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut records = Vec::new();
    for (which, label, setting) in [
        (
            0u64,
            format!("Gbreg({n}, 64, 4)"),
            format!("gbreg n={n} d=4 b=64"),
        ),
        (1u64, format!("Gnp({n}, deg 3)"), format!("gnp n={n} deg=3")),
    ] {
        let (g, seed) = instance(profile, which)?;
        let begin = Instant::now();
        let outcome = bisect_huge(&g, seed ^ 0xABCD, threads);
        let elapsed = begin.elapsed();
        let total_time_s = elapsed.as_secs_f64();
        let proposals_per_sec = if total_time_s > 0.0 {
            outcome.proposals as f64 / total_time_s
        } else {
            0.0
        };
        table.push_row(vec![
            label,
            "PFM".into(),
            fmt_cut(outcome.cut as f64),
            fmt_duration(elapsed),
            outcome.rounds.to_string(),
            format!("{:.2}", proposals_per_sec / 1.0e6),
            fmt_bytes(peak_rss_bytes()),
        ]);
        records.push(BenchRecord {
            experiment: "huge".into(),
            setting,
            algorithm: "PFM".into(),
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
        id: "huge".into(),
        title: "Million-vertex feasibility: streaming build, BFS reorder, parallel multilevel"
            .into(),
        tables: vec![table],
        records,
    })
}

/// The profile's instance number `which` (0: `Gbreg`, 1: `Gnp`), with
/// the seed its bisection derives from.
fn instance(profile: &Profile, which: u64) -> Result<(Graph, u64), BenchError> {
    let n = profile.huge_vertices();
    let seed = derive_seed(profile.seed, &[40, n as u64, which]);
    let mut gen_rng = LaggedFibonacci::seed_from_u64(seed);
    let g = match which {
        0 => {
            let params = gbreg::GbregParams::new(n, 64.min(n / 4), 4)?;
            gbreg::sample(&mut gen_rng, &params)?
        }
        _ => {
            let params = gnp::GnpParams::with_average_degree(n, 3.0)?;
            gnp::sample_streamed(&mut gen_rng, &params)
        }
    };
    Ok((g, seed))
}

/// Result of one huge bisection.
struct HugeOutcome {
    cut: u64,
    rounds: u64,
    proposals: u64,
}

/// The huge ladder for an `n`-vertex graph at `threads` workers.
fn pipeline(n: usize, threads: usize) -> Pipeline {
    let pfm = ParallelFm::new()
        .with_threads(threads)
        .with_boundary_seeds();
    Pipeline::multilevel(pfm)
        .with_coarsener(ParallelMatching::new().with_threads(threads))
        .with_depth(CoarsenDepth::ToSizeOrStall(coarse_target(n)))
        .expect("coarse_target is at least 64")
        .with_coarsest_refiner(BoundaryFm::new())
}

/// BFS reorder → [`pipeline`] → map back. The returned cut is
/// re-verified on the *original* graph, so the reordering is provably
/// cut-preserving in every run, not just in tests.
fn bisect_huge(g: &Graph, seed: u64, threads: usize) -> HugeOutcome {
    let order = reorder::bfs(g);
    let gr = order.apply(g);
    let mut rng = LaggedFibonacci::seed_from_u64(seed);
    let mut ws = Workspace::new();
    let (refined, rounds) =
        pipeline(g.num_vertices(), threads).bisect_counted(&gr, &mut rng, &mut ws);

    let old_sides = order.to_old_sides(refined.sides());
    let original = Bisection::from_sides(g, old_sides).expect("inverse mapping is a permutation");
    assert_eq!(
        original.cut(),
        refined.cut(),
        "reordering must preserve the cut"
    );
    HugeOutcome {
        cut: original.cut(),
        rounds,
        proposals: ws.take_proposals(),
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface does not exist.
pub fn peak_rss_bytes() -> u64 {
    peak_rss().0
}

/// As [`peak_rss_bytes`], with an explanation when the value degrades
/// to 0: the field is still *recorded* (as 0) so the report schema
/// stays uniform across platforms, and the note tells the reader (and
/// the `repro` log) why it is 0 instead of silently looking like a
/// measurement.
pub fn peak_rss() -> (u64, Option<&'static str>) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (
            0,
            Some("/proc/self/status unavailable on this platform; peak RSS recorded as 0"),
        );
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            if kb == 0 {
                return (
                    0,
                    Some("VmHWM in /proc/self/status did not parse; peak RSS recorded as 0"),
                );
            }
            return (kb * 1024, None);
        }
    }
    (
        0,
        Some("/proc/self/status has no VmHWM line; peak RSS recorded as 0"),
    )
}

/// Formats a byte count as MiB for the table (shared with the
/// `huge-netlist` twin experiment).
pub(crate) fn fmt_bytes(bytes: u64) -> String {
    if bytes == 0 {
        "n/a".into()
    } else {
        format!("{:.0} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Scale;

    #[test]
    fn smoke_scale_runs_end_to_end() {
        let profile = Profile::smoke();
        let result = run(&profile).expect("huge experiment at smoke scale");
        assert_eq!(result.id, "huge");
        assert_eq!(result.records.len(), 2);
        for r in &result.records {
            assert_eq!(r.algorithm, "PFM");
            assert!(r.mean_cut >= 0.0);
            assert!(r.graphs == 1);
        }
        // Gbreg plants a 64-edge bisection; multilevel local search on
        // 2000 vertices should land well under a random cut (~2000).
        assert!(
            result.records[0].mean_cut < 1000.0,
            "cut {}",
            result.records[0].mean_cut
        );
        assert_eq!(result.tables.len(), 1);
        assert_eq!(result.tables[0].rows().len(), 2);
    }

    #[test]
    fn deterministic_at_fixed_threads() {
        let g = bisect_gen::special::grid(40, 40);
        let a = bisect_huge(&g, 123, 4);
        let b = bisect_huge(&g, 123, 4);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.proposals, b.proposals);
    }

    #[test]
    fn ladder_stays_within_a_quarter_of_serial_multilevel_fm() {
        // Oracle gate: on the huge-smoke Gnp instance (10^5 vertices),
        // the parallel ladder at 2 threads cuts at most 1.25× what the
        // serial multilevel boundary FM cuts on the same reordered
        // input.
        let (g, seed) = instance(&Profile::huge_smoke(), 1).unwrap();
        let outcome = bisect_huge(&g, seed ^ 0xABCD, 2);
        let gr = reorder::bfs(&g).apply(&g);
        let mut rng = LaggedFibonacci::seed_from_u64(seed ^ 0xABCD);
        let serial = Pipeline::multilevel(BoundaryFm::new()).bisect(&gr, &mut rng);
        assert!(
            outcome.cut * 4 <= serial.cut() * 5,
            "ladder cut {} vs serial ML-FM {}",
            outcome.cut,
            serial.cut()
        );
    }

    #[test]
    fn huge_smoke_profile_names_the_scale() {
        let p = Profile::huge_smoke();
        assert_eq!(p.scale, Scale::HugeSmoke);
        assert_eq!(p.huge_vertices(), 100_000);
        assert_eq!(p.starts, 1);
    }

    #[test]
    fn peak_rss_reports_something_on_linux() {
        // On Linux /proc exists and the value is at least a megabyte;
        // elsewhere the function degrades to 0.
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 1 << 20, "rss {rss}");
        }
    }

    #[test]
    fn fmt_bytes_handles_zero_and_large() {
        assert_eq!(fmt_bytes(0), "n/a");
        assert_eq!(fmt_bytes(512 * 1024 * 1024), "512 MiB");
    }
}
