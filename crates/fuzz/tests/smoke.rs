//! Tier-1 fuzzing entry points: full corpus replay plus a bounded mutation
//! budget per target. CI runs these with `RVAAS_FUZZ_SMOKE=1` (smaller
//! budget, same coverage); `cargo run -p rvaas-fuzz` is the soak mode.

use rvaas_fuzz::{find_target, iteration_budget, run_target, targets, TARGETS};

/// Full-test budget per target; smoke mode divides this by 16.
const BUDGET: u64 = 2048;

#[test]
fn fuzz_frame_decoder() {
    run_target("frame", iteration_budget(BUDGET), targets::frame_target);
}

#[test]
fn fuzz_sync_codec() {
    run_target("sync", iteration_budget(BUDGET), targets::sync_target);
}

#[test]
fn fuzz_http_parser() {
    run_target("http", iteration_budget(BUDGET), targets::http_target);
}

#[test]
fn fuzz_json_codec() {
    run_target("json", iteration_budget(BUDGET), targets::json_target);
}

#[test]
fn fuzz_cube_algebra() {
    run_target("cube", iteration_budget(BUDGET), targets::cube_target);
}

#[test]
fn fuzz_config_parser() {
    run_target("config", iteration_budget(BUDGET), targets::config_target);
}

#[test]
fn every_target_is_reachable_by_name() {
    for (name, _) in TARGETS {
        assert!(find_target(name).is_some(), "target {name} not findable");
    }
    assert!(find_target("no-such-target").is_none());
}

/// The regression entries must stay hostile: each one decodes to an error
/// on its surface (they are the exact inputs that once allocated
/// gigabytes, overflowed the stack, or mis-parsed escapes).
#[test]
fn regression_entries_are_still_rejected() {
    use rvaas_fuzz::Corpus;

    // Each is refused by a codec guard past the version check, not for
    // speaking another protocol version.
    let sync = Corpus::load("sync");
    for entry in sync
        .entries
        .iter()
        .filter(|e| e.name.starts_with("regress-"))
    {
        assert!(
            matches!(
                rvaas_client::decode_inband(&entry.bytes),
                Err(rvaas_types::Error::Codec(_))
            ),
            "sync corpus entry {} no longer rejected by a codec guard",
            entry.name
        );
    }

    let json = Corpus::load("json");
    let bomb = json
        .entries
        .iter()
        .find(|e| e.name == "regress-depth-bomb.bin")
        .expect("depth bomb entry shipped");
    let text = std::str::from_utf8(&bomb.bytes).expect("bomb is ASCII");
    assert!(rvaas_daemon::json::parse(text).is_err());

    let frame = Corpus::load("frame");
    let oversized = frame
        .entries
        .iter()
        .find(|e| e.name == "regress-oversized-prefix.bin")
        .expect("oversized prefix entry shipped");
    assert!(matches!(
        rvaas_client::read_frame(&mut oversized.bytes.as_slice()),
        Err(rvaas_client::FrameError::Oversized { .. })
    ));

    let config = Corpus::load("config");
    let entry_text = |name: &str| {
        let entry = config
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} entry shipped"));
        String::from_utf8(entry.bytes.clone()).expect("config corpus is text")
    };
    // Numeric overflow is a config error, not a panic or a silent wrap.
    assert!(
        rvaas_daemon::DaemonConfig::parse(&entry_text("regress-workers-overflow.bin")).is_err()
    );
    // An IPv4 prefix past /32 is rejected by the rules parser, and the
    // embedded `=` makes the same line an unknown key as a config file.
    let prefix = entry_text("regress-prefix-past-32.bin");
    assert!(rvaas_daemon::parse_rules(&prefix).is_err());
    assert!(rvaas_daemon::DaemonConfig::parse(&prefix).is_err());
    // The unquote asymmetry: a doubly quoted value keeps exactly one pair.
    let doubled = rvaas_daemon::DaemonConfig::parse(&entry_text("regress-double-quoted-value.bin"))
        .expect("doubly quoted value parses");
    assert_eq!(doubled.rules_file.as_deref(), Some("\"abc\""));
}
