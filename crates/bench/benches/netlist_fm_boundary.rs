//! Full-scan vs boundary-seeded netlist FM re-passes (DESIGN.md §15).
//!
//! The hypergraph twin of `fm_boundary`: the scenario is re-refining a
//! netlist bisection that is already *near-converged* — what
//! projection through an uncoarsening level hands the refiner. Each
//! instance is refined to a fixpoint once, then perturbed by a few
//! balanced pair swaps, and the benches measure re-refinement from
//! that start. The full-scan variant
//! ([`NetlistFm::with_full_scan`]) seeds its gain buckets from every
//! cell (`O(cells + pins)` per pass); the default seeds only from the
//! incrementally tracked cut boundary (`O(boundary · pins)`).
//!
//! * `netlist-fm-repass/*` — 20k-cell Rent netlists across net-size
//!   exponent γ and pin locality. Locality-clustered instances
//!   (`loc5`) keep a small boundary, so boundary seeding wins there;
//!   global instances cut a constant fraction of the nets, and since
//!   the two seedings also commit different move sequences (full scans
//!   can chain interior zero-gain moves), either can come out ahead.
//! * `netlist-fm-repass-100k/*` — one 10^5-cell locality-clustered
//!   instance, the scale where the per-pass full scan dominates
//!   re-refinement cost outright. `boundary-projected` enters as an
//!   uncoarsening level does
//!   ([`NetlistRefiner::refine_projected_counted`]), so each pass ends
//!   after `max(1024, cells/8)` moves that do not improve its best
//!   prefix; `boundary` enters through
//!   [`NetlistRefiner::refine_counted`], whose passes run until the
//!   lazily reached component is exhausted. The full multilevel payoff
//!   (projection replacing every per-level cache rebuild) is measured
//!   end-to-end by `repro --huge-netlist-smoke`, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bisect_core::netlist::{NetlistBisection, NetlistFm, NetlistRefiner};
use bisect_core::workspace::Workspace;
use bisect_gen::netlist::{sample_streamed, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use bisect_graph::hypergraph::Netlist;
use rand::{RngCore, SeedableRng};

/// Refines a random balanced start to a fixpoint, then perturbs it by
/// `swaps` balanced pair swaps — a stand-in for the bisection a
/// projection step hands the next level's refiner.
fn near_converged(nl: &Netlist, swaps: usize) -> NetlistBisection {
    let mut rng = LaggedFibonacci::seed_from_u64(11);
    let init = NetlistBisection::random_balanced(nl, &mut rng);
    let refined = NetlistFm::new().refine(nl, init);
    let mut sides = refined.sides().to_vec();
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
    NetlistBisection::from_sides(nl, sides).expect("same length as the netlist")
}

fn rent_netlist(cells: usize, gamma: f64, locality: f64, seed: u64) -> Netlist {
    let params = RentNetlistParams::new(cells, cells * 14 / 10, 8, gamma, locality)
        .expect("valid parameters");
    sample_streamed(&mut LaggedFibonacci::seed_from_u64(seed), &params)
}

fn bench_repass(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    refiner: &NetlistFm,
    nl: &Netlist,
    init: &NetlistBisection,
) {
    group.bench_with_input(id, nl, |b, nl| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut rng = LaggedFibonacci::seed_from_u64(1);
            std::hint::black_box(
                refiner
                    .refine_counted(nl, &[], init.clone(), &mut rng, &mut ws)
                    .0
                    .cut(),
            )
        });
    });
}

fn bench_netlist_repass_by_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-fm-repass");
    group.sample_size(10);
    for (label, gamma, locality) in [
        ("g0-global", 0.0, 1.0),
        ("g1.8-global", 1.8, 1.0),
        ("g1.8-loc5", 1.8, 0.05),
        ("g3-loc5", 3.0, 0.05),
    ] {
        let nl = rent_netlist(20_000, gamma, locality, 7);
        let init = near_converged(&nl, 10);
        bench_repass(
            &mut group,
            BenchmarkId::new("full-scan", label),
            &NetlistFm::new().with_full_scan(),
            &nl,
            &init,
        );
        bench_repass(
            &mut group,
            BenchmarkId::new("boundary", label),
            &NetlistFm::new(),
            &nl,
            &init,
        );
    }
    group.finish();
}

fn bench_netlist_repass_100k(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist-fm-repass-100k");
    group.sample_size(10);
    let nl = rent_netlist(100_000, 1.8, 0.05, 1989);
    let init = near_converged(&nl, 10);
    bench_repass(
        &mut group,
        BenchmarkId::new("full-scan", "g1.8-loc5"),
        &NetlistFm::new().with_full_scan(),
        &nl,
        &init,
    );
    bench_repass(
        &mut group,
        BenchmarkId::new("boundary", "g1.8-loc5"),
        &NetlistFm::new(),
        &nl,
        &init,
    );
    group.bench_with_input(
        BenchmarkId::new("boundary-projected", "g1.8-loc5"),
        &nl,
        |b, nl| {
            let fm = NetlistFm::new();
            let mut ws = Workspace::new();
            b.iter(|| {
                let mut rng = LaggedFibonacci::seed_from_u64(1);
                ws.prepare_netlist_cache(nl, &init);
                std::hint::black_box(
                    fm.refine_projected_counted(nl, &[], init.clone(), &mut rng, &mut ws)
                        .0
                        .cut(),
                )
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_netlist_repass_by_shape,
    bench_netlist_repass_100k
);
criterion_main!(benches);
