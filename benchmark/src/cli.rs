//! Argument handling and the three multi-workload subcommands.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::procfs::host_shape;
use crate::report::{metric_line, parse_metric_line, result_json};
use crate::run::{percentile_note, run_untraced, Metrics, RunOptions};
use crate::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::{ladder, replay};

const USAGE: &str = "usage:
  rvaas-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload in this process; the last line of output is the result JSON
  rvaas-benchmark run   [--seed <n>] [--seconds <s>]   all four workloads, end-to-end metrics
  rvaas-benchmark trace [--seed <n>] [--seconds <s>]   all four, per-layer metrics and span files
  rvaas-benchmark check [--seed <n>] [--seconds <s>]   two `run` sets compared against the bounds
  rvaas-benchmark describe                             BENCHMARK.json as this build defines it
workloads: hot_query cold_query churn_sync full_resync";

/// Flags shared by every form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_oracle: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        corrupt_oracle: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = number()?,
            "--seconds" => flags.seconds = number()?.clamp(1, 60),
            "--trace" => flags.trace = number()? != 0,
            // Self-test of the correctness check: one oracle answer is
            // deliberately wrong, so the run must fail.
            "--corrupt-oracle" => flags.corrupt_oracle = number()? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

pub fn main(args: &[String]) -> i32 {
    let (subcommand, rest) = match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", spec::benchmark_json());
            return 0;
        }
        Some(name @ ("run" | "trace" | "check")) => (Some(name), &args[1..]),
        _ => (None, args),
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return 2;
        }
    };
    let outcome = match (subcommand, &flags.workload) {
        (None, Some(name)) => one_workload(name, &flags),
        (Some("run"), None) => all_workloads(&flags, false).map(|set| set.correct),
        (Some("trace"), None) => all_workloads(&flags, true).map(|set| set.correct),
        (Some("check"), None) => check(&flags),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("rvaas-benchmark: {why}");
            3
        }
    }
}

fn print_metrics<'a>(metrics: &Metrics, names: impl Iterator<Item = &'a str>) {
    for name in names {
        if let Some(metric) = metrics.get(name) {
            println!("{}", metric_line(name, metric));
        }
    }
}

/// The single-workload form the driver calls.
fn one_workload(name: &str, flags: &Flags) -> Result<bool, String> {
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let options = RunOptions {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        http_clients: workload.http_clients,
        corrupt_oracle: flags.corrupt_oracle,
    };
    println!(
        "# rvaas-benchmark workload={name} seed={} seconds={} trace={}",
        flags.seed,
        flags.seconds,
        u8::from(flags.trace)
    );
    println!("# host: {}", host_shape());
    println!(
        "# load: {} closed-loop keep-alive HTTP connection(s); open-loop publisher at {} \
         epochs/s ({}), one sync exchange per epoch on a long-lived connection; all of it over \
         loopback TCP",
        workload.http_clients,
        workload.epochs_per_s,
        if workload.churn_during_queries {
            "during the query window"
        } else {
            "as a probe after the query window"
        }
    );
    println!("# why: {}", workload.why);

    let (measured, metrics) = if flags.trace {
        let traced = replay::run_traced(&options)?;
        let mut metrics = traced.metrics;
        ladder::run(&mut metrics)?;
        ladder::derive(&mut metrics);
        (traced.measured, metrics)
    } else {
        let outcome = run_untraced(&options)?;
        let setups = &outcome.setups_s;
        println!(
            "# setups: {} timed, {:.4} s to {:.4} s",
            setups.len(),
            setups.iter().copied().fold(f64::MAX, f64::min),
            setups.iter().copied().fold(f64::MIN, f64::max)
        );
        (outcome.measured, outcome.metrics)
    };
    println!("# inputs: hash={:016x}", measured.input_hash);
    println!("# {}", percentile_note(measured.completed_queries()));
    let names: Vec<&str> = if flags.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    print_metrics(&metrics, names.iter().copied());
    if !flags.trace {
        println!("# order statistics of the same window (per-layer metrics; see README):");
        print_metrics(
            &metrics,
            metrics.keys().copied().filter(|name| !names.contains(name)),
        );
    }
    let errors = measured
        .queries
        .iter()
        .flat_map(|q| &q.errors)
        .chain(&measured.epochs.errors)
        .chain(&measured.oracle.errors)
        .chain(&measured.errors);
    for error in errors {
        println!("# failed: {error}");
    }
    let (attempted, failed) = (measured.attempted(), measured.failed());
    println!(
        "# operations: attempted={attempted} failed={failed} failed_share={} \
         oracle_checked={} oracle_mismatches={}",
        failed as f64 / attempted.max(1) as f64,
        measured.oracle.checked,
        measured.oracle.mismatches
    );
    let correct = failed == 0;
    println!(
        "{}",
        result_json(
            correct,
            attempted.max(1),
            failed,
            &metrics,
            names.into_iter()
        )?
    );
    Ok(correct)
}

/// One set: every workload's metrics, as its child process printed them.
struct Set {
    correct: bool,
    /// workload → metric → value
    values: BTreeMap<&'static str, BTreeMap<String, f64>>,
}

/// Runs every workload in a fresh child process (the flight recorder and
/// `VmHWM` are process-global), passing its output through.
fn all_workloads(flags: &Flags, trace: bool) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = Set {
        correct: true,
        values: BTreeMap::new(),
    };
    for workload in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", workload.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        println!();
        set.correct &= output.status.success();
        set.values.insert(
            workload.name,
            stdout.lines().filter_map(parse_metric_line).collect(),
        );
    }
    println!(
        "# all workloads {}",
        if set.correct {
            "passed: every verdict agreed with the oracle"
        } else {
            "FAILED"
        }
    );
    Ok(set)
}

/// Two full sets back to back on the same build, compared metric by metric
/// against each metric's own bound.
fn check(flags: &Flags) -> Result<bool, String> {
    let first = all_workloads(flags, false)?;
    let second = all_workloads(flags, false)?;
    println!();
    println!(
        "# check: two sets, seed {}, {} s windows",
        flags.seed, flags.seconds
    );
    println!("# host: {}", host_shape());
    println!(
        "{:<12} {:<22} {:<6} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "unit", "first", "second", "worse by", "bound"
    );
    let mut agreed = first.correct && second.correct;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let value = |set: &Set| {
                set.values
                    .get(workload.name)
                    .and_then(|m| m.get(metric.name))
                    .copied()
            };
            let (Some(a), Some(b)) = (value(&first), value(&second)) else {
                println!("{:<12} {:<22} missing", workload.name, metric.name);
                agreed = false;
                continue;
            };
            // How much worse the worse of the two sets is than the other:
            // same code twice, so either order must stay inside the bound.
            let (low, high) = (a.min(b), a.max(b));
            let worse_by = match (low > 0.0, metric.higher_is_better) {
                (false, _) => 0.0,
                (true, false) => (high - low) / low,
                (true, true) => (high - low) / high,
            };
            let within = worse_by <= metric.bound;
            agreed &= within;
            println!(
                "{:<12} {:<22} {:<6} {:>14.3} {:>14.3} {:>8.2}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                metric.unit,
                a,
                b,
                worse_by * 100.0,
                metric.bound * 100.0,
                if within { "pass" } else { "FAIL" }
            );
        }
    }
    println!(
        "# check {}",
        if agreed {
            "passed: both sets agree within every bound"
        } else {
            "FAILED"
        }
    );
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_string()).collect()
    }

    #[test]
    fn the_driver_form_parses() {
        let flags = parse_flags(&args(&[
            "--workload",
            "hot_query",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(flags.workload.as_deref(), Some("hot_query"));
        assert_eq!((flags.seed, flags.seconds, flags.trace), (42, 7, true));
        assert!(!flags.corrupt_oracle);
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse_flags(&args(&["--seed"])).is_err());
        assert!(parse_flags(&args(&["--seed", "many"])).is_err());
        assert!(parse_flags(&args(&["--frobnicate", "1"])).is_err());
        assert_eq!(main(&args(&["--workload", "nope"])), 3);
        assert_eq!(main(&args(&[])), 2);
    }
}
