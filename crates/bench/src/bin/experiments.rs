//! Runs the RVaaS evaluation experiments.
//!
//! Usage:
//!
//! ```text
//! experiments            # run every experiment (F1, T1..T9, A1, A2, S1..S4)
//! experiments t1 s2      # run a subset by id
//! ```

use rvaas_bench::{run_experiment, EXPERIMENT_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args.iter().map(|a| a.to_lowercase()).collect()
    };
    for id in ids {
        let rows = run_experiment(&id);
        if rows.is_empty() {
            eprintln!("(experiment {id} produced no output; known ids: {EXPERIMENT_IDS:?})");
        }
        println!();
    }
}
