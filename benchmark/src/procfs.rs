//! What the harness reads from `/proc`: peak memory, CPU time and the
//! host's shape. Linux only; a missing file reads as zero.

use std::fs;

/// Microseconds per clock tick as `/proc/*/stat` counts them (`USER_HZ` is
/// 100 on every Linux the repo targets), hence the 10 ms resolution.
pub const TICK_US: u64 = 10_000;

/// The process's peak resident set size (`VmHWM`), in KiB.
pub fn vm_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `utime + stime` of a `/proc/.../stat` line, in clock ticks.
fn cpu_ticks_of(stat: &str) -> Option<u64> {
    // The command name may hold spaces; the fixed fields follow its ")".
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

/// CPU time used by the whole process so far, in clock ticks.
pub fn process_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ticks_of(&s))
        .unwrap_or(0)
}

/// CPU time used by the calling thread so far, in clock ticks.
pub fn thread_cpu_ticks() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| cpu_ticks_of(&s))
        .unwrap_or(0)
}

/// One line describing the host every result depends on.
pub fn host_shape() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "available_parallelism={cores} kernel={kernel} transport=loopback-tcp \
         daemon=in-process (embedded by Daemon::start as `rvaas serve` does: the binary has no \
         controller feed, only an in-process caller can publish epochs)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_even_with_spaces_in_the_command() {
        let stat = "42 (rvaas (verify) 0) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_ticks_of(stat), Some(12));
        assert_eq!(cpu_ticks_of("garbage"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(vm_hwm_kb() > 0);
    }
}
