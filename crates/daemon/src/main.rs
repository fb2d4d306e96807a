//! The `rvaas` binary: `serve`, `verify`, `trace` and `man` subcommands.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rvaas_daemon::{json, Daemon, DaemonConfig, MAN_PAGE};
use rvaas_service::{QueryResponse, ServiceError};
use rvaas_types::ClientId;

const USAGE: &str = "usage: rvaas <serve|verify|trace|man> [options]
  rvaas serve  [-c FILE] [--topology SPEC] [--rules-file FILE] [--workers N]
               [--sync-listen ADDR] [--http-listen ADDR] [--no-cache]
               [--run-secs N]
  rvaas verify [-c FILE] [--topology SPEC] [--rules-file FILE]
               [--client N] [--query NAME] [--to-ip N]
  rvaas trace  [-c FILE] [--topology SPEC] [--rules-file FILE]
               [--client N] [--query NAME] [--to-ip N]
  rvaas man
See `rvaas man` for details.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "verify" => cmd_verify(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "man" => {
            print!("{MAN_PAGE}");
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(why)) => {
            eprintln!("rvaas: {why}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Config(err)) => {
            eprintln!("rvaas: {err}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(why)) => {
            eprintln!("rvaas: {why}");
            ExitCode::from(1)
        }
    }
}

enum CliError {
    /// Bad command line: exit 2.
    Usage(String),
    /// Bad configuration: exit 2.
    Config(ServiceError),
    /// Failure while running: exit 1.
    Runtime(String),
}

impl From<ServiceError> for CliError {
    fn from(err: ServiceError) -> Self {
        match err {
            ServiceError::Config(_) | ServiceError::InvalidQuery(_) => CliError::Config(err),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

/// Options common to `serve` and `verify`, plus each one's extras.
struct Options {
    config: DaemonConfig,
    /// The last of `--workers`, `--sync-listen` and `--http-listen` given:
    /// flags only `serve` reads.
    listener_flag: Option<String>,
    run_secs: Option<u64>,
    client: ClientId,
    query: Option<String>,
    to_ip: Option<u64>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut options = Options {
        config: DaemonConfig::default(),
        listener_flag: None,
        run_secs: None,
        client: ClientId(1),
        query: None,
        to_ip: None,
    };
    // The config file is applied first so flags override it, wherever the
    // -c flag itself appears on the command line.
    let mut iter = args.iter();
    let mut overrides: Vec<(String, String)> = Vec::new();
    while let Some(flag) = iter.next() {
        let mut value_for = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "-c" | "--config" => {
                let path = value_for(flag)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
                options.config = DaemonConfig::parse(&text)?;
            }
            "--topology" => overrides.push(("topology".to_string(), value_for(flag)?)),
            "--rules-file" => overrides.push(("rules_file".to_string(), value_for(flag)?)),
            "--workers" | "--sync-listen" | "--http-listen" => {
                overrides.push((flag[2..].replace('-', "_"), value_for(flag)?));
                options.listener_flag = Some(flag.clone());
            }
            "--no-cache" => overrides.push(("cache".to_string(), "off".to_string())),
            "--run-secs" => {
                options.run_secs = Some(parse_u64(flag, &value_for(flag)?)?);
            }
            "--client" => {
                let n = parse_u64(flag, &value_for(flag)?)?;
                options.client = ClientId(
                    u32::try_from(n)
                        .map_err(|_| CliError::Usage("--client out of range".to_string()))?,
                );
            }
            "--query" => options.query = Some(value_for(flag)?),
            "--to-ip" => options.to_ip = Some(parse_u64(flag, &value_for(flag)?)?),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    for (key, value) in overrides {
        options.config.set(&key, &value)?;
    }
    Ok(options)
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects an integer, got {value:?}")))
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let options = parse_options(args)?;
    if options.query.is_some() || options.to_ip.is_some() {
        return Err(CliError::Usage(
            "--query/--to-ip only apply to `rvaas verify`".to_string(),
        ));
    }
    let config = options.config;
    if config.sync_listen.is_none() && config.http_listen.is_none() {
        // A daemon with nothing to listen on is a misconfiguration, not a
        // silent no-op.
        return Err(CliError::Usage(
            "serve needs at least one of sync_listen / http_listen".to_string(),
        ));
    }
    // Bounded runs (CI, smoke tests) still drain cleanly.
    let deadline = options
        .run_secs
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    let daemon = Daemon::start(&config)?;
    println!(
        "rvaas: serving topology {} (epoch {})",
        config.topology,
        daemon.service().current_serial()
    );
    if let Some(addr) = daemon.sync_addr() {
        println!("rvaas: sync endpoint on {addr}");
    }
    if let Some(addr) = daemon.http_addr() {
        println!("rvaas: http endpoint on {addr}");
    }
    match deadline {
        Some(deadline) => {
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(50));
            }
            println!("rvaas: run window elapsed, draining");
            daemon.shutdown();
        }
        None => {
            // No portable signal handling without external crates: run
            // until the process is killed. `--run-secs` is the bounded
            // alternative.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    one_shot(args, json::render_response)
}

/// `rvaas trace`: like `verify`, but prints each query's flight-recorder
/// event chain instead of just the verdict line.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let recorder = rvaas_telemetry::trace::recorder();
    one_shot(args, |response| {
        json::render_trace(response.trace.0, &recorder.chain(response.trace))
    })
}

/// Starts a daemon without listeners, answers `--query` (or the five
/// default queries) as `--client`, prints one `render`ed line per response
/// and shuts down.
fn one_shot(args: &[String], render: impl Fn(&QueryResponse) -> String) -> Result<(), CliError> {
    let options = parse_options(args)?;
    let serve_flag = options.run_secs.map(|_| "--run-secs".to_string());
    if let Some(flag) = serve_flag.or(options.listener_flag) {
        return Err(CliError::Usage(format!(
            "{flag} only applies to `rvaas serve`"
        )));
    }
    let mut config = options.config;
    // One-shot mode never listens. A `-c` file may still name listeners and
    // workers: the same file serves `serve`.
    config.sync_listen = None;
    config.http_listen = None;
    let daemon = Daemon::start(&config)?;
    let specs = match &options.query {
        Some(name) => vec![json::query_by_name(name, options.to_ip)?],
        None => vec![
            rvaas_client::QuerySpec::ReachableDestinations,
            rvaas_client::QuerySpec::ReachingSources,
            rvaas_client::QuerySpec::Isolation,
            rvaas_client::QuerySpec::GeoLocation,
            rvaas_client::QuerySpec::Neutrality,
        ],
    };
    for spec in specs {
        let response = daemon.service().try_query(options.client, spec)?;
        println!("{}", render(&response));
    }
    daemon.shutdown();
    Ok(())
}
