//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics as the last line of
//! standard output. Job rows, spans and the environment record go to
//! `.bench_out/` under the current directory.

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::bench::{self, Config};
use perfbench::workload::{Workload, THREADS};

const USAGE: &str = "usage: perfbench --workload <small-inputs|large-inputs> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn write_outputs(cfg: &Config, out: &bench::Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.jobs.tsv")),
        out.job_rows(cfg.workload),
    )?;
    if cfg.trace {
        std::fs::write(dir.join(format!("{stem}.spans.tsv")), out.span_rows())?;
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut fields = BTreeMap::new();
    fields.insert("workload", cfg.workload.name().to_string());
    fields.insert("seed", cfg.seed.to_string());
    fields.insert("seconds", cfg.seconds.to_string());
    fields.insert("trace", u8::from(cfg.trace).to_string());
    fields.insert("rounds", out.rounds.to_string());
    fields.insert("threads", THREADS.to_string());
    fields.insert(
        "nproc",
        std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
    );
    fields.insert("commit", env("PERFBENCH_COMMIT"));
    fields.insert("rustc", env("PERFBENCH_RUSTC"));
    std::fs::write(
        dir.join(format!("{stem}.env.json")),
        bench::json_object(&fields),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match bench::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_outputs(&cfg, &out) {
        eprintln!("perfbench: writing .bench_out: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", out.job_rows(cfg.workload));
    let metrics = if cfg.trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    let rss_known = bench::peak_rss_mib().is_some();
    let correct = out.failed == 0 && rss_known;
    println!(
        "{}",
        bench::result_line(correct, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}
