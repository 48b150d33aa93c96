//! One benchmark run: set up a workload, run its job list in rounds
//! for the allotted time, verify every result, and reduce the timings
//! to the end-to-end (untraced) or per-layer (traced) metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::{layer_times, Tracer};
use crate::workload::{self, Built, Instance, Job, Raw, Verdict, Workload};

/// Set-up is repeated at least this many times, and until it has taken
/// [`SETUP_MIN_S`] in total; `setup_s` is the median. The floor in
/// seconds keeps the median of millisecond set-ups steady.
pub const SETUP_MIN_REPS: usize = 5;

/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;

/// An untraced run repeats its job list at least this many times, so
/// every gated job's wall time is the fastest of two or more runs; see
/// [`Outcome::per_job`]. A traced run needs one round.
pub const MIN_ROUNDS: usize = 2;

/// Run parameters, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget in seconds (at least [`MIN_ROUNDS`] rounds
    /// always run, one when traced).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a job did over all its repetitions.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job.
    pub job: Job,
    /// Untraced wall times, one per round.
    pub walls: Vec<f64>,
    /// Traced wall times, one per round (traced run only).
    pub traced_walls: Vec<f64>,
    /// `(labels hash, cut, work)` of the first untraced result.
    pub result: Option<(u64, u64, u64)>,
    /// The first failure, or `Ok`.
    pub verdict: Verdict,
}

/// Everything a run measured.
pub struct Outcome {
    /// Set-up time of every repetition.
    pub setup_times: Vec<f64>,
    /// Group and name of each instance, by index.
    pub instances: Vec<(&'static str, String)>,
    /// Per-job records.
    pub jobs: Vec<JobRecord>,
    /// Rounds run.
    pub rounds: usize,
    /// Job executions attempted (untraced and traced).
    pub attempted: u64,
    /// Job executions that failed.
    pub failed: u64,
    /// Seconds spent in the benchmark's own verification.
    pub verify_s: f64,
    /// The tracer of a traced run.
    pub tracer: Option<Arc<Tracer>>,
}

/// FNV-1a over a label vector: a cheap fingerprint for comparing a
/// job's repetitions and traced twin.
pub fn fingerprint(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &l in labels {
        for b in l.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `xs` (0 for an empty slice).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of positive values (0 if any is non-positive or
/// none are given).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set (VmHWM) of this process in MiB, if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn now() -> Instant {
    // lint: allow(determinism-time) — the benchmark's measurement clock
    Instant::now()
}

/// Records one execution of `rec.job` into `rec`; returns whether it
/// passed. `expect` is the result the execution must reproduce.
pub fn record(
    rec: &mut JobRecord,
    inst: &Instance,
    result: Result<Raw, Verdict>,
    expect: Option<(u64, u64, u64)>,
    verify_s: &mut f64,
) -> bool {
    let begin = now();
    let verdict = match result {
        Err(v) => v,
        Ok(raw) => {
            let key = (fingerprint(&raw.labels), raw.cut, raw.work);
            let v = workload::verify(&rec.job, inst, &raw);
            if rec.result.is_none() {
                rec.result = Some(key);
            }
            match expect {
                Some(e) if v.is_ok() && e != key => Verdict::Nondeterministic,
                _ => v,
            }
        }
    };
    *verify_s += begin.elapsed().as_secs_f64();
    let ok = verdict.is_ok();
    if !ok && rec.verdict.is_ok() {
        rec.verdict = verdict;
    }
    ok
}

/// Sets up `cfg.workload` and runs its jobs for `cfg.seconds`.
///
/// # Errors
///
/// Input generation or pipeline construction failed.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_times: Vec<f64> = Vec::new();
    let mut instances = Vec::new();
    while setup_times.len() < SETUP_MIN_REPS || setup_times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(std::mem::take(&mut instances));
        let begin = now();
        instances = workload::generate(cfg.workload, cfg.seed)?;
        setup_times.push(begin.elapsed().as_secs_f64());
    }
    let jobs = workload::jobs(&instances);
    let plain: Vec<Built> = jobs
        .iter()
        .map(|j| workload::pipeline(j.algo, None))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let tracer = cfg.trace.then(|| Arc::new(Tracer::new()));
    let traced: Vec<Built> = match &tracer {
        Some(t) => jobs
            .iter()
            .map(|j| workload::pipeline(j.algo, Some(t)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        None => Vec::new(),
    };
    let mut records: Vec<JobRecord> = jobs
        .into_iter()
        .map(|job| JobRecord {
            job,
            walls: Vec::new(),
            traced_walls: Vec::new(),
            result: None,
            verdict: Verdict::Ok,
        })
        .collect();

    let (mut attempted, mut failed, mut verify_s) = (0u64, 0u64, 0.0f64);
    let min_rounds = if cfg.trace { 1 } else { MIN_ROUNDS };
    let mut rounds = 0usize;
    let begin = now();
    // Stop once the next round, if it takes as long as the last one,
    // would end after `cfg.seconds`.
    let mut last_round = 0.0f64;
    loop {
        let elapsed = begin.elapsed().as_secs_f64();
        if rounds >= min_rounds && elapsed + last_round > cfg.seconds {
            break;
        }
        for (j, rec) in records.iter_mut().enumerate() {
            if !rec.job.gated && (rounds > 0 || !cfg.trace) {
                continue;
            }
            let inst = &instances[rec.job.instance];
            let (result, wall) = workload::run_timed(&rec.job, inst, &plain[j], None);
            rec.walls.push(wall);
            attempted += 1;
            let expect = rec.result;
            if !record(rec, inst, result, expect, &mut verify_s) {
                failed += 1;
            }
            if let Some(t) = &tracer {
                t.set_job(attempted);
                let (result, wall) = workload::run_timed(&rec.job, inst, &traced[j], Some(t));
                rec.traced_walls.push(wall);
                attempted += 1;
                let expect = rec.result;
                if !record(rec, inst, result, expect, &mut verify_s) {
                    failed += 1;
                }
            }
        }
        rounds += 1;
        last_round = begin.elapsed().as_secs_f64() - elapsed;
    }
    Ok(Outcome {
        setup_times,
        instances: instances
            .iter()
            .map(|i| (i.group.name(), i.name.clone()))
            .collect(),
        jobs: records,
        rounds,
        attempted,
        failed,
        verify_s,
        tracer,
    })
}

impl Outcome {
    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_times)
    }

    /// Per-job wall times of the gated jobs: the fastest of the job's
    /// rounds. Every round repeats the same deterministic work (checked
    /// by [`record`]), so a slower round measures interference from the
    /// rest of the host, which comes and goes within a run.
    pub fn per_job(&self, traced: bool) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|r| r.job.gated)
            .map(|r| fastest(if traced { &r.traced_walls } else { &r.walls }))
            .collect()
    }

    /// Sum of the gated jobs' fastest wall times.
    pub fn solve_s(&self, traced: bool) -> f64 {
        self.per_job(traced).iter().sum()
    }

    /// Cut ÷ oracle of every job that produced a result and passes `keep`.
    pub fn ratios(&self, keep: impl Fn(&Job) -> bool) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|r| keep(&r.job))
            .filter_map(|r| {
                r.result
                    .map(|(_, cut, _)| cut as f64 / r.job.oracle.max(1) as f64)
            })
            .collect()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: self.setup_s(),
            },
            Metric {
                name: "solve_s",
                unit: "s",
                value: self.solve_s(false),
            },
            Metric {
                name: "job_s_geomean",
                unit: "s",
                value: geomean(&self.per_job(false)),
            },
            Metric {
                name: "cut_vs_oracle",
                unit: "ratio",
                value: geomean(&self.ratios(|j| j.gated)),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: peak_rss_mib().unwrap_or(0.0),
            },
        ]
    }

    /// The per-layer metrics of a traced run, per round, in
    /// `BENCHMARK.json` order (empty for an untraced run).
    pub fn per_layer(&self) -> Vec<Metric> {
        let Some(tracer) = &self.tracer else {
            return Vec::new();
        };
        let spans = tracer.spans();
        let times = layer_times(&spans);
        let r = self.rounds.max(1) as f64;
        let busy = |l: &str| times.get(l).map_or(0.0, |t| t.0) / r;
        let own = |l: &str| times.get(l).map_or(0.0, |t| t.1) / r;
        let c = |l: &'static str, k: &'static str| tracer.counter(l, k);
        let per_round = |l: &'static str, k: &'static str| c(l, k) / r;
        let frac = |l: &'static str| {
            let refines = c(l, "refines");
            if refines > 0.0 {
                c(l, "idle") / refines
            } else {
                0.0
            }
        };
        let levels = c("coarsen", "levels");
        let shrink = if levels > 0.0 {
            c("coarsen", "shrink_sum") / levels
        } else {
            0.0
        };
        let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
        vec![
            m("gen.busy_s", "s", self.setup_s()),
            m("reorder.busy_s", "s", busy("reorder")),
            m("coarsen.busy_s", "s", busy("coarsen")),
            m("coarsen.levels", "count", levels / r),
            m("coarsen.shrink", "ratio", shrink),
            m("initial.busy_s", "s", busy("initial")),
            m("engine.self_s", "s", own("engine")),
            m("kl.busy_s", "s", busy("kl")),
            m("kl.calls", "count", per_round("kl", "calls")),
            m("kl.work", "count", per_round("kl", "work")),
            m("sa.busy_s", "s", busy("sa")),
            m("sa.calls", "count", per_round("sa", "calls")),
            m("sa.work", "count", per_round("sa", "work")),
            m("fm.busy_s", "s", busy("fm")),
            m("fm.work", "count", per_round("fm", "work")),
            m("fm.idle_frac", "ratio", frac("fm")),
            m("par_fm.busy_s", "s", busy("par_fm")),
            m("par_fm.work", "count", per_round("par_fm", "work")),
            m("par_fm.idle_frac", "ratio", frac("par_fm")),
            m("netlist.engine.self_s", "s", own("netlist.engine")),
            m("netlist.fm.busy_s", "s", busy("netlist.fm")),
            m("netlist.fm.work", "count", per_round("netlist.fm", "work")),
            m("netlist.fm.idle_frac", "ratio", frac("netlist.fm")),
            m("netlist.par_fm.busy_s", "s", busy("netlist.par_fm")),
            m(
                "netlist.par_fm.work",
                "count",
                per_round("netlist.par_fm", "work"),
            ),
            m("netlist.par_fm.idle_frac", "ratio", frac("netlist.par_fm")),
            m(
                "netlist.par_fm.local_cut_vs_oracle",
                "ratio",
                geomean(&self.ratios(|j| !j.gated)),
            ),
            m("netlist.kway.self_s", "s", own("netlist.kway")),
            m(
                "netlist.kway.bisections",
                "count",
                if busy("netlist.kway") > 0.0 {
                    per_round("netlist.fm", "starts")
                } else {
                    0.0
                },
            ),
            m("verify.busy_s", "s", self.verify_s / r),
            m(
                "trace.overhead_frac",
                "ratio",
                self.solve_s(true) / self.solve_s(false).max(f64::MIN_POSITIVE) - 1.0,
            ),
        ]
    }

    /// The job table: one tab-separated row per job that ran.
    pub fn job_rows(&self, workload: Workload) -> String {
        let mut out = String::from(
            "workload\tgroup\tinstance\tpipeline\tgated\tcut\toracle\tratio\twall_s\ttraced_wall_s\twork\tverdict\twalls_s\n",
        );
        for r in self.jobs.iter().filter(|r| !r.walls.is_empty()) {
            let (group, instance) = &self.instances[r.job.instance];
            let (cut, work) = r.result.map_or((0, 0), |(_, c, w)| (c, w));
            let walls: Vec<String> = r.walls.iter().map(|w| format!("{w:.4}")).collect();
            let _ = writeln!(
                out,
                "{}\t{group}\t{instance}\t{}\t{}\t{}\t{}\t{:.4}\t{:.6}\t{:.6}\t{}\t{}\t{}",
                workload.name(),
                r.job.algo.label(),
                if r.job.gated { "yes" } else { "no" },
                cut,
                r.job.oracle,
                cut as f64 / r.job.oracle.max(1) as f64,
                fastest(&r.walls),
                fastest(&r.traced_walls),
                work,
                r.verdict.tag(),
                walls.join(","),
            );
        }
        out
    }

    /// The recorded spans, one tab-separated row each (traced run).
    pub fn span_rows(&self) -> String {
        let mut out = String::from("id\tparent\tjob\tname\tstart_ns\tend_ns\n");
        if let Some(t) = &self.tracer {
            for (i, s) in t.spans().iter().enumerate() {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{i}\t{parent}\t{}\t{}\t{}\t{}",
                    s.job, s.name, s.start_ns, s.end_ns
                );
            }
        }
        out
    }
}

/// Renders the result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string fields (the environment record).
pub fn json_object(fields: &BTreeMap<&str, String>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "  \"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_fastest_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            4,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
