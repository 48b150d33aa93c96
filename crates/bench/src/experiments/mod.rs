//! The experiments of the paper's evaluation, one function per table
//! (see `DESIGN.md` §3 for the experiment ↔ paper artifact index).

use std::time::Duration;

use crate::error::BenchError;
use crate::json::BenchRecord;
use crate::profile::Profile;
use crate::runner::QuadAverage;
use crate::table::{fmt_cut, fmt_duration, fmt_percent, Table};

pub mod analysis;
pub mod huge;
pub mod huge_netlist;
pub mod observations;
pub mod placement;
pub mod random;
pub mod special;

/// Output of one experiment: a set of rendered tables plus the
/// machine-readable records behind them (empty for analysis-only
/// experiments whose tables have no per-algorithm quad structure).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"gbreg"`).
    pub id: String,
    /// Human-readable description.
    pub title: String,
    /// The tables, in the paper's order.
    pub tables: Vec<Table>,
    /// Flat per-`(setting, algorithm)` records for
    /// `BENCH_results.json`.
    pub records: Vec<BenchRecord>,
}

/// All experiment ids, in the order the paper presents them
/// (`models`, `klpasses`, `netlist`, `satune`, and `winrate` are this
/// reproduction's analysis extensions).
pub const ALL_IDS: &[&str] = &[
    "table1",
    "ladder",
    "grid",
    "btree",
    "g2set",
    "gnp",
    "gbreg",
    "obs1",
    "obs4",
    "models",
    "klpasses",
    "netlist",
    "placement",
    "satune",
    "winrate",
    "huge",
    "huge-netlist",
];

/// Coarsest-level size of the huge ladders for an `n`-vertex (or
/// `n`-cell) instance: small inputs still get a few coarsening levels
/// (pure greedy refinement from a random start is much weaker than a
/// V-cycle), huge ones stop at 5 000 where the serial coarsest-level
/// refinement is cheap.
pub(crate) fn coarse_target(n: usize) -> usize {
    (n / 16).clamp(64, 5_000)
}

/// Whether `id` names a known experiment.
pub fn is_known(id: &str) -> bool {
    ALL_IDS.contains(&id)
}

/// Runs the experiment with the given id.
///
/// # Errors
///
/// Returns [`BenchError::UnknownExperiment`] for an id outside
/// [`ALL_IDS`], and propagates generator and pipeline errors from the
/// experiment itself.
pub fn run(id: &str, profile: &Profile) -> Result<ExperimentResult, BenchError> {
    match id {
        "table1" => special::table1(profile),
        "ladder" => special::family(profile, special::Family::Ladder),
        "grid" => special::family(profile, special::Family::Grid),
        "btree" => special::family(profile, special::Family::BinaryTree),
        "g2set" => random::g2set(profile),
        "gnp" => random::gnp(profile),
        "gbreg" => random::gbreg(profile),
        "obs1" => observations::obs1(profile),
        "obs4" => observations::obs4(profile),
        "winrate" => observations::winrate(profile),
        "models" => analysis::models(profile),
        "klpasses" => analysis::klpasses(profile),
        "netlist" => analysis::netlist(profile),
        "placement" => placement::run(profile),
        "satune" => analysis::satune(profile),
        "huge" => huge::run(profile),
        "huge-netlist" => huge_netlist::run(profile),
        other => Err(BenchError::UnknownExperiment { id: other.into() }),
    }
}

/// Column headers shared by all four-algorithm tables (the appendix
/// layout: per algorithm its cut and time, plus the paper's two derived
/// columns per algorithm family).
pub(crate) fn quad_headers(label: &str) -> Vec<String> {
    [
        label, "bsa", "t_sa", "bcsa", "t_csa", "SA impr", "SA spdup", "bkl", "t_kl", "bckl",
        "t_ckl", "KL impr", "KL spdup",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Renders one averaged setting as a row in the appendix layout.
pub(crate) fn quad_row(label: String, avg: &QuadAverage) -> Vec<String> {
    let [sa, csa, kl, ckl] = avg.cuts;
    let [t_sa, t_csa, t_kl, t_ckl] = avg.times;
    vec![
        label,
        fmt_cut(sa),
        fmt_duration(t_sa),
        fmt_cut(csa),
        fmt_duration(t_csa),
        fmt_percent(improvement(sa, csa)),
        fmt_percent(speedup(t_sa, t_csa)),
        fmt_cut(kl),
        fmt_duration(t_kl),
        fmt_cut(ckl),
        fmt_duration(t_ckl),
        fmt_percent(improvement(kl, ckl)),
        fmt_percent(speedup(t_kl, t_ckl)),
    ]
}

/// `(standard − compacted)/standard × 100` on mean cuts; 0 when the
/// standard cut is 0.
pub(crate) fn improvement(standard: f64, compacted: f64) -> f64 {
    if standard == 0.0 {
        0.0
    } else {
        (standard - compacted) / standard * 100.0
    }
}

/// `(t_woc − t_c)/t_woc × 100`; 0 when the baseline time is 0.
pub(crate) fn speedup(without: Duration, with: Duration) -> f64 {
    let t = without.as_secs_f64();
    if t == 0.0 {
        0.0
    } else {
        (t - with.as_secs_f64()) / t * 100.0
    }
}

/// Derives a per-instance seed from the profile seed and a context path
/// (experiment, size, setting, replicate …) via
/// [`bisect_gen::rng::SeedSequence`], so nearby paths give unrelated
/// streams and the derivation is shared with the parallel trial
/// runner's per-trial streams.
pub(crate) fn derive_seed(base: u64, parts: &[u64]) -> u64 {
    bisect_gen::rng::SeedSequence::derive(base, parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_lists_valid_ones() {
        let err = run("bogus", &Profile::quick()).unwrap_err();
        assert!(matches!(err, BenchError::UnknownExperiment { ref id } if id == "bogus"));
        assert!(err.to_string().contains("gbreg"));
        assert!(err.to_string().contains("table1"));
    }

    #[test]
    fn is_known_matches_all_ids() {
        for id in ALL_IDS {
            assert!(is_known(id));
        }
        assert!(!is_known("bogus"));
    }

    #[test]
    fn derive_seed_is_path_sensitive() {
        assert_ne!(derive_seed(1, &[1, 2]), derive_seed(1, &[2, 1]));
        assert_ne!(derive_seed(1, &[1]), derive_seed(2, &[1]));
        assert_eq!(derive_seed(7, &[3, 4]), derive_seed(7, &[3, 4]));
    }

    #[test]
    fn improvement_and_speedup_edge_cases() {
        assert_eq!(improvement(0.0, 5.0), 0.0);
        assert_eq!(improvement(10.0, 1.0), 90.0);
        assert_eq!(speedup(Duration::ZERO, Duration::from_secs(1)), 0.0);
        assert_eq!(
            speedup(Duration::from_secs(2), Duration::from_secs(1)),
            50.0
        );
    }

    #[test]
    fn quad_headers_match_row_width() {
        let headers = quad_headers("b");
        let avg = QuadAverage {
            cuts: [1.0, 2.0, 3.0, 4.0],
            times: [Duration::from_millis(1); 4],
            passes: [1.0; 4],
            proposals: [10.0; 4],
            count: 1,
        };
        assert_eq!(quad_row("x".into(), &avg).len(), headers.len());
    }
}
