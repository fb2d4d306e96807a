//! The repository benchmark: four socket-level workloads against the live
//! daemon, a per-layer cost ladder, and oracle-checked verdicts. See
//! `README.md` beside this package for what each workload and metric means.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its metrics, ending with one JSON
//!   line (the form `BENCHMARK.json` names as the benchmark's command);
//! * `run`, `trace` and `check` run all four workloads, each in a fresh
//!   child process of the first form, and print the whole picture.

mod cli;
mod fixture;
mod gen;
mod ladder;
mod load;
mod oracle;
mod procfs;
mod replay;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod wire;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
