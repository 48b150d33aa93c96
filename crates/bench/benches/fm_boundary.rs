//! Full-scan FM vs boundary-seeded FM passes (DESIGN.md §12).
//!
//! The scenario is the one the multilevel pipeline actually pays for:
//! re-refining a partition that is already *near-converged* — exactly
//! what projection through an uncoarsening level hands the refiner.
//! Each instance is refined to a fixpoint once, then perturbed by a few
//! balanced pair swaps, and the benches measure re-refinement from that
//! start. The full-scan pass seeds its gain buckets from every vertex
//! (`O(V + E)` per pass); `BoundaryFm` seeds only from the incrementally
//! tracked cut boundary (`O(boundary · deg)`).
//!
//! * `fm-repass/*` — re-refinement on `Gnp(2000)` across average degree
//!   2–8. Here the boundary refiner is *slower*: on a 2-vCPU VM,
//!   `boundary` took 1.50 / 2.04 / 3.05 ms against 1.25 / 1.84 /
//!   0.99 ms for `full-scan` at degree 2 / 4 / 8. `Gnp`'s best cut is a
//!   constant *fraction* of the edges, so the boundary stays a constant
//!   fraction of `V` and seeding from it saves little while the cache
//!   upkeep costs. At degree 8 the gap is the pass count: both enter
//!   through [`Refiner::refine_counted`], whose passes are unbounded
//!   (each moves every reachable vertex before rewinding to its best
//!   prefix), and from this start `BoundaryFm` keeps finding improving
//!   passes — 6, ending at cut 2 037 — where the full scan stops after
//!   one at 2 049. Entered as an uncoarsening level enters
//!   ([`Refiner::refine_projected_counted`], bounded passes), the same
//!   start takes one pass and 0.47 ms.
//! * `fm-repass-planted/*` — re-refinement on `Gbreg` with a small
//!   planted cut: the boundary is tiny, and seeding from it is the
//!   measurable win. The full multilevel payoff (projection replacing
//!   every per-level `O(V + E)` rebuild) is measured end-to-end by
//!   `repro --huge-smoke`, not here.
//! * `fm-repass-100k/*` — `BoundaryFm` re-refinement on a BFS-reordered
//!   `Gnp(10^5, deg 3)`, started from a perturbed multilevel bisection:
//!   `projected` enters as an uncoarsening level does
//!   ([`Refiner::refine_projected_counted`]), so each pass ends after
//!   `max(1024, V/8)` moves that do not improve its best prefix;
//!   `unbounded` enters through [`Refiner::refine_counted`], whose
//!   passes run until the lazily reached component is exhausted. The
//!   gap is the finest-level cost the stall bound removes from every
//!   graph ladder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::bisector::{Bisector, Refiner};
use bisect_core::fm::{BoundaryFm, FiducciaMattheyses};
use bisect_core::partition::Bisection;
use bisect_core::pipeline::Pipeline;
use bisect_core::seed;
use bisect_core::workspace::Workspace;
use bisect_gen::rng::LaggedFibonacci;
use bisect_gen::{gbreg, gnp};
use bisect_graph::{reorder, Graph};
use rand::{RngCore, SeedableRng};

/// Refines a random balanced start to a fixpoint, then perturbs it by
/// `swaps` balanced pair swaps — a stand-in for the partition a
/// projection step hands the next level's refiner.
fn near_converged(g: &Graph, swaps: usize) -> Bisection {
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let init = seed::random_balanced(g, &mut rng);
    let refined = FiducciaMattheyses::new().refine(g, init, &mut rng);
    perturbed(g, &refined, swaps, &mut rng)
}

/// `p` after `swaps` random balanced pair swaps.
fn perturbed(g: &Graph, p: &Bisection, swaps: usize, rng: &mut LaggedFibonacci) -> Bisection {
    let mut sides = p.sides().to_vec();
    let n = sides.len();
    let mut done = 0;
    while done < swaps {
        let a = (rng.next_u64() % n as u64) as usize;
        let b = (rng.next_u64() % n as u64) as usize;
        if sides[a] != sides[b] {
            sides.swap(a, b);
            done += 1;
        }
    }
    Bisection::from_sides(g, sides).expect("same length as the graph")
}

fn bench_repass<R: Refiner>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    refiner: &R,
    g: &Graph,
    init: &Bisection,
) {
    group.bench_with_input(id, g, |b, g| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            std::hint::black_box(
                refiner
                    .refine_counted(g, init.clone(), &mut rng, &mut ws)
                    .0
                    .cut(),
            )
        });
    });
}

fn bench_fm_repass_by_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm-repass");
    group.sample_size(10);
    for degree in [2u32, 4, 8] {
        let params =
            gnp::GnpParams::with_average_degree(2000, degree as f64).expect("valid parameters");
        let mut grng = LaggedFibonacci::seed_from_u64(7);
        let g = gnp::sample(&mut grng, &params);
        let init = near_converged(&g, 10);
        bench_repass(
            &mut group,
            BenchmarkId::new("full-scan", degree),
            &FiducciaMattheyses::new(),
            &g,
            &init,
        );
        bench_repass(
            &mut group,
            BenchmarkId::new("boundary", degree),
            &BoundaryFm::new(),
            &g,
            &init,
        );
    }
    group.finish();
}

fn bench_fm_repass_planted(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm-repass-planted");
    group.sample_size(10);
    let params = gbreg::GbregParams::new(2000, 16, 4).expect("valid parameters");
    let mut grng = LaggedFibonacci::seed_from_u64(1989);
    let g = gbreg::sample(&mut grng, &params).expect("construction succeeds");
    let init = near_converged(&g, 10);
    bench_repass(
        &mut group,
        BenchmarkId::new("full-scan", 4),
        &FiducciaMattheyses::new(),
        &g,
        &init,
    );
    bench_repass(
        &mut group,
        BenchmarkId::new("boundary", 4),
        &BoundaryFm::new(),
        &g,
        &init,
    );
    group.finish();
}

fn bench_fm_repass_100k(c: &mut Criterion) {
    let mut group = c.benchmark_group("fm-repass-100k");
    group.sample_size(10);
    let params = gnp::GnpParams::with_average_degree(100_000, 3.0).expect("valid parameters");
    let g = gnp::sample(&mut LaggedFibonacci::seed_from_u64(7), &params);
    let g = reorder::bfs(&g).apply(&g);
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let converged = Pipeline::multilevel(BoundaryFm::new()).bisect(&g, &mut rng);
    let init = perturbed(&g, &converged, 10, &mut rng);
    let bfm = BoundaryFm::new();
    group.bench_with_input(BenchmarkId::new("projected", 3), &g, |b, g| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            ws.prepare_gain_cache(g, &init);
            std::hint::black_box(
                bfm.refine_projected_counted(g, init.clone(), &mut rng, &mut ws)
                    .0
                    .cut(),
            )
        });
    });
    bench_repass(
        &mut group,
        BenchmarkId::new("unbounded", 3),
        &bfm,
        &g,
        &init,
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_fm_repass_by_density,
    bench_fm_repass_planted,
    bench_fm_repass_100k
);
criterion_main!(benches);
