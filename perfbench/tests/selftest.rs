//! Self-tests of the benchmark: wrapper transparency for every
//! pipeline configuration it runs, failure accounting on corrupted
//! results, and what the seed argument may change.

use std::sync::Arc;

use bisect_gen::gbreg::{self, GbregParams};
use bisect_gen::netlist::{self as rent, RentNetlistParams};
use bisect_gen::rng::LaggedFibonacci;
use perfbench::bench::{self, JobRecord};
use perfbench::trace::{layer_times, Tracer};
use perfbench::workload::{self, Algo, Group, Input, Instance, Job, Oracle, Verdict, Workload};
use rand::SeedableRng;

fn small_graph() -> Instance {
    let mut rng = LaggedFibonacci::seed_from_u64(5);
    let g = gbreg::sample(&mut rng, &GbregParams::new(600, 8, 3).unwrap()).unwrap();
    Instance {
        group: Group::PaperSparse,
        name: "Gbreg(600,8,3)".into(),
        input: Input::Graph(g),
        oracle: Oracle::Half,
        starts: 1,
    }
}

/// Large enough that the parallel netlist job (coarsest size 5000)
/// builds a ladder and takes the projected-cache path.
fn small_netlist(cells: usize) -> Instance {
    let params = RentNetlistParams::new(cells, cells * 14 / 10, 8, 1.8, 0.02).unwrap();
    let nl = rent::sample_streamed(&mut LaggedFibonacci::seed_from_u64(6), &params);
    Instance {
        group: Group::NetlistLadder,
        name: format!("Rent({cells})"),
        input: Input::Netlist(nl),
        oracle: Oracle::Half,
        starts: 1,
    }
}

fn job(algo: Algo, reorder: bool, seed: u64) -> Job {
    Job {
        instance: 0,
        algo,
        reorder,
        seed,
        oracle: 1,
        gated: true,
    }
}

/// The layer each configuration's refiner records under.
fn layer(algo: Algo) -> &'static str {
    match algo {
        Algo::Kl | Algo::Ckl => "kl",
        Algo::Sa | Algo::Csa => "sa",
        Algo::MlBoundaryFm => "fm",
        Algo::MlParallelFm => "par_fm",
        Algo::NetMlFm | Algo::Placement(_) => "netlist.fm",
        Algo::NetParallelFm => "netlist.par_fm",
    }
}

fn assert_transparent(inst: &Instance, j: &Job) {
    let plain = workload::pipeline(j.algo, None).unwrap();
    let tracer = Arc::new(Tracer::new());
    let traced = workload::pipeline(j.algo, Some(&tracer)).unwrap();
    let a = workload::execute(j, inst, &plain, None).unwrap();
    let b = workload::execute(j, inst, &traced, Some(&tracer)).unwrap();
    assert_eq!(a, b, "{:?} on {}: traced run differs", j.algo, inst.name);
    assert_eq!(workload::verify(j, inst, &a), Verdict::Ok, "{:?}", j.algo);
    let l = layer(j.algo);
    assert!(
        tracer.counter(l, "calls") >= 1.0,
        "{:?}: no {l} calls",
        j.algo
    );
    assert_eq!(
        tracer.counter(l, "work"),
        a.work as f64,
        "{:?}: traced work is not the pipeline's work",
        j.algo
    );
    let times = layer_times(&tracer.spans());
    assert!(times.contains_key(l), "{:?}: no {l} span", j.algo);
}

#[test]
fn wrappers_are_transparent_on_every_graph_configuration() {
    let inst = small_graph();
    for (algo, reorder) in [
        (Algo::Kl, false),
        (Algo::Ckl, false),
        (Algo::Sa, false),
        (Algo::Csa, false),
        (Algo::MlBoundaryFm, true),
        (Algo::MlParallelFm, true),
    ] {
        for seed in [1, 2] {
            assert_transparent(&inst, &job(algo, reorder, seed));
        }
    }
}

#[test]
fn wrappers_are_transparent_on_every_netlist_configuration() {
    let inst = small_netlist(12_000);
    for algo in [Algo::NetMlFm, Algo::NetParallelFm] {
        assert_transparent(&inst, &job(algo, true, 3));
    }
    let inst = small_netlist(2_000);
    for parts in [4, 16] {
        assert_transparent(&inst, &job(Algo::Placement(parts), false, 4));
    }
}

#[test]
fn corrupted_results_fail_and_the_run_continues() {
    let inst = small_graph();
    let j = job(Algo::Ckl, false, 1);
    let built = workload::pipeline(j.algo, None).unwrap();
    let good = workload::execute(&j, &inst, &built, None).unwrap();
    assert_eq!(workload::verify(&j, &inst, &good), Verdict::Ok);

    let mut wrong_cut = good.clone();
    wrong_cut.cut += 1;
    assert!(matches!(
        workload::verify(&j, &inst, &wrong_cut),
        Verdict::CutMismatch { .. }
    ));
    let mut short = good.clone();
    short.labels.pop();
    assert_eq!(workload::verify(&j, &inst, &short), Verdict::Length);
    let mut lopsided = good.clone();
    let flip = lopsided.labels.iter().position(|&l| l == 0).unwrap();
    lopsided.labels[flip] = 1;
    assert_eq!(workload::verify(&j, &inst, &lopsided), Verdict::Unbalanced);

    // Through the run's accounting: one failure is recorded, later
    // good executions still pass, and the first failure is kept.
    let mut rec = JobRecord {
        job: j.clone(),
        walls: Vec::new(),
        traced_walls: Vec::new(),
        result: None,
        verdict: Verdict::Ok,
    };
    let mut verify_s = 0.0;
    assert!(bench::record(
        &mut rec,
        &inst,
        Ok(good.clone()),
        None,
        &mut verify_s
    ));
    let expect = rec.result;
    assert!(!bench::record(
        &mut rec,
        &inst,
        Ok(wrong_cut),
        expect,
        &mut verify_s
    ));
    assert!(!bench::record(
        &mut rec,
        &inst,
        Err(Verdict::Panic("boom".into())),
        expect,
        &mut verify_s
    ));
    assert!(bench::record(
        &mut rec,
        &inst,
        Ok(good.clone()),
        expect,
        &mut verify_s
    ));
    assert!(matches!(rec.verdict, Verdict::CutMismatch { .. }));

    // A repetition that differs from the first result is flagged.
    let mut other = good;
    let zero = other.labels.iter().position(|&l| l == 0).unwrap();
    let one = other.labels.iter().position(|&l| l == 1).unwrap();
    other.labels.swap(zero, one);
    other.cut = perfbench::oracle::graph_cut(
        match &inst.input {
            Input::Graph(g) => g,
            Input::Netlist(_) => unreachable!(),
        },
        &other.labels.iter().map(|&l| l == 1).collect::<Vec<_>>(),
    );
    let mut rec2 = rec.clone();
    rec2.verdict = Verdict::Ok;
    assert!(!bench::record(
        &mut rec2,
        &inst,
        Ok(other),
        expect,
        &mut verify_s
    ));
    assert_eq!(rec2.verdict, Verdict::Nondeterministic);
}

fn same_inputs(a: &[Instance], b: &[Instance]) -> Vec<bool> {
    a.iter()
        .zip(b)
        .map(|(x, y)| match (&x.input, &y.input) {
            (Input::Graph(g), Input::Graph(h)) => g == h,
            (Input::Netlist(g), Input::Netlist(h)) => g == h,
            _ => false,
        })
        .collect()
}

#[test]
fn the_seed_changes_the_inputs_and_nothing_else() {
    for w in Workload::ALL {
        let a = workload::generate(w, 1).unwrap();
        let again = workload::generate(w, 1).unwrap();
        let b = workload::generate(w, 2).unwrap();
        assert!(
            same_inputs(&a, &again).iter().all(|&s| s),
            "{w:?}: not deterministic"
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.group, &x.name), (y.group, &y.name));
            assert_eq!(x.size(), y.size());
            assert_eq!(x.oracle, y.oracle);
            assert_eq!(x.starts, y.starts);
        }
        // Every random input changes; the deterministic ladder does not.
        let same = same_inputs(&a, &b);
        for (x, s) in a.iter().zip(same) {
            assert_eq!(s, x.oracle == Oracle::Ladder, "{}", x.name);
        }
        // The job list, including every job's rng seed, is the same.
        let (ja, jb) = (workload::jobs(&a), workload::jobs(&b));
        assert_eq!(ja.len(), jb.len());
        for (x, y) in ja.iter().zip(&jb) {
            assert_eq!(
                (x.instance, x.algo, x.reorder, x.seed, x.gated),
                (y.instance, y.algo, y.reorder, y.seed, y.gated)
            );
        }
    }
}
