//! One benchmark for the whole symbol path. See `benchmark/README.md`.
//!
//! `mcss-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload, prints one line per metric and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Without `--workload` it runs all five in
//! turn; `--aa` runs each twice over (A, B, B, A) and holds the medians
//! against the bounds in `BENCHMARK.json`.

mod alloc;
mod endtoend;
mod input;
mod layers;
mod loopback;
mod mem;
mod memloop;
mod report;
mod simsession;
mod spec;
mod stats;
mod trace;
mod traced;

use std::process::ExitCode;

use report::{Outcome, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

const USAGE: &str = "usage: mcss-benchmark [--workload <name>] [--seed <u64>] \
                     [--seconds <s>] [--trace <0|1>] [--aa]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_one(workload: Workload, args: &Args) -> Outcome {
    let outcome = if args.trace {
        traced::run(workload, args.seed, args.seconds)
    } else {
        endtoend::run(workload, args.seed, args.seconds)
    };
    outcome.print(workload);
    outcome
}

/// The A/A self-check: four untraced runs of one workload in the order
/// A, B, B, A (so a drift of the host over the four lands on both sides
/// alike), each side's reading the mean of its two runs. Two sides of
/// the same commit must agree within every metric's own bound.
fn aa(workload: Workload, args: &Args, bounds: &[(String, f64)]) -> bool {
    let runs: Vec<Outcome> = (0..4).map(|_| run_one(workload, args)).collect();
    let mut ok = runs.iter().all(|r| r.correct);
    for (name, bound) in bounds {
        let value = |i: usize| runs[i].value(name).unwrap_or(f64::NAN);
        let a = (value(0) + value(3)) / 2.0;
        let b = (value(1) + value(2)) / 2.0;
        let apart = (a - b).abs() / a.min(b);
        let within = apart <= *bound;
        println!(
            "aa {:<12} {:<24} A {a:>16.6} B {b:>16.6} apart {:>6.2}% of {:>4.1}% {}",
            workload.name(),
            name,
            apart * 100.0,
            bound * 100.0,
            if within { "ok" } else { "OUT OF BOUND" }
        );
        ok &= within;
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // What every timing depends on and the result line does not say.
    eprintln!(
        "[host] {} CPUs available, GF(256) backend {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        mcss_gf256::simd::Backend::active().name()
    );
    let mut ok = true;
    if args.aa {
        let bounds = match spec::bounds() {
            Ok(bounds) => bounds,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        for &workload in &args.workloads {
            ok &= aa(workload, &args, &bounds);
        }
    } else {
        for &workload in &args.workloads {
            ok &= run_one(workload, &args).correct;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
