//! `bench-engine` — regenerate `BENCH_engine.json` from a metrics
//! snapshot and gate CI on throughput regressions.
//!
//! ```text
//! bench-engine [--short] [--iterations N] [--warmup N]
//!              [--out <bench.json>] [--check <baseline.json>] [--tolerance <fraction>]
//! ```
//!
//! Runs the engine-throughput groups (serial loop, cold and warm engine
//! drains at 1/2/4/8 workers, the cold 1-worker drain traced into a
//! full journal `traced/1`, the profiler-attached `profiled/4` drain,
//! and `steady/1`, a fresh fleet into a full 12 288-entry path cache)
//! over the 18-scenario acceptance fleet, derives one JSON line
//! per group plus the first-class scaling-ratio rows (`scale/cold/N` vs
//! the serial loop, `scale/warm/N` vs `warm/1`, `scale/profiled/4` vs
//! `warm/4`, `scale/traced/1` vs `cold/1`) from the `whart-obs`
//! snapshot, then one mean line per design-ablation group (`ablation/*`:
//! fast vs explicit path solve, the evaluator's scaling end points, the
//! simulator under both PHYs; no ceiling applies to them), and — with
//! `--check` — fails (exit 1) when any group's serial-loop-normalized
//! mean grew beyond the tolerance (default 0.25 = 25%; NaN, infinite
//! and negative values are rejected), when a scaling ratio drifted
//! beyond it, or when any scale
//! row in the fresh run exceeds its hard ceiling: 1.25 for the
//! parallel-path rows (losing outright to the code it replaces is a
//! regression no baseline can excuse), 1.05 for `scale/profiled/4` (a
//! profiler too costly to leave on defeats its purpose), 2.5 for
//! `scale/traced/1` (a journal that refuses every event must not cost
//! the solver its provenance). The self-profile captured during the
//! warm phase is printed to stderr as a frame-attribution table.

use std::process::ExitCode;
use whart_bench::harness::{
    attribution_lines, bench_lines, check_regression, engine_fleet, run_engine_throughput,
    BenchConfig,
};

fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut config = if args.iter().any(|a| a == "--short") {
        BenchConfig::short()
    } else {
        BenchConfig::full()
    };
    if let Some(n) = flag_value(args, "--iterations")? {
        config.iterations = n
            .parse()
            .map_err(|_| format!("invalid --iterations '{n}'"))?;
    }
    if let Some(n) = flag_value(args, "--warmup")? {
        config.warmup = n.parse().map_err(|_| format!("invalid --warmup '{n}'"))?;
    }
    if config.iterations == 0 {
        return Err("--iterations must be positive".into());
    }
    let tolerance: f64 = match flag_value(args, "--tolerance")? {
        Some(t) => t
            .parse()
            .map_err(|_| format!("invalid --tolerance '{t}'"))?,
        None => 0.25,
    };

    let out = flag_value(args, "--out")?;
    let check = flag_value(args, "--check")?;
    if let (Some(out), Some(check)) = (&out, &check) {
        if out == check {
            return Err(
                "--out would overwrite the --check baseline before it is read; \
                 write the fresh run elsewhere"
                    .into(),
            );
        }
    }

    let models = engine_fleet();
    let (snapshot, profile) = run_engine_throughput(config, &models);
    let lines = bench_lines(&snapshot, models.len() as u64);
    eprint!("{}", attribution_lines(&profile));
    match out {
        Some(path) => {
            std::fs::write(&path, &lines).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} groups to {path}", lines.lines().count());
        }
        None => print!("{lines}"),
    }

    if let Some(path) = check {
        let baseline =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let failures = check_regression(&baseline, &lines, tolerance)?;
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("regression: {failure}");
            }
            return Ok(false);
        }
        eprintln!(
            "no regression vs {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
