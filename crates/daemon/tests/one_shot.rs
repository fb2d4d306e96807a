//! The one-shot subcommands as a shell runs them: the `rvaas` binary, its
//! exit status and its output.

use std::process::{Command, Output};

fn rvaas(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rvaas"))
        .args(args)
        .output()
        .expect("rvaas runs")
}

const QUERY: [&str; 6] = [
    "--topology",
    "line(4,2)",
    "--client",
    "1",
    "--query",
    "isolation",
];

#[test]
fn one_shot_modes_reject_the_flags_only_serve_reads() {
    let output = rvaas(&[&["verify", "--workers", "0"], &QUERY[..]].concat());
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--workers only applies to `rvaas serve`"));
    assert!(stderr.contains("usage: rvaas"), "{stderr}");
    assert!(output.stdout.is_empty(), "{output:?}");
    for subcommand in ["verify", "trace"] {
        for (flag, value) in [
            ("--workers", "2"),
            ("--sync-listen", "127.0.0.1:0"),
            ("--http-listen", "127.0.0.1:0"),
        ] {
            let output = rvaas(&[&[subcommand, flag, value], &QUERY[..]].concat());
            assert_eq!(output.status.code(), Some(2), "{subcommand} {flag}");
            assert!(output.stdout.is_empty(), "{subcommand} {flag}");
        }
    }
}

#[test]
fn one_shot_modes_accept_a_config_file_written_for_serve() {
    let path = std::env::temp_dir().join(format!("rvaas-one-shot-{}.conf", std::process::id()));
    let file = "workers = 2\nsync_listen = \"127.0.0.1:0\"\nhttp_listen = \"127.0.0.1:0\"\n";
    std::fs::write(&path, file).unwrap();
    let output = rvaas(&[&["verify", "-c", path.to_str().unwrap()], &QUERY[..]].concat());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"isolated\":true"), "{stdout}");
}
