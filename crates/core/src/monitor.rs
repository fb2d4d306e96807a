//! Configuration monitoring: the passive/active acquisition of the snapshot.
//!
//! "Through these sessions, the controller maintains an up-to-date snapshot
//! of the network configuration, either passively (monitoring events) or
//! actively (query the switch state …). … it is also possible for RVaaS to
//! proactively query the switches for their current configuration. The
//! latter however needs to happen at random times, which are hard to guess
//! for the adversary." (paper Section IV-A).
//!
//! The [`ConfigMonitor`] consumes switch messages (flow-monitor
//! notifications, flow-removed events, flow-stats replies) and decides when
//! to poll, according to a [`PollStrategy`]. It is deliberately independent
//! of the simulator: the [`RvaasController`](crate::RvaasController) feeds it
//! messages and asks it which polls to issue.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rvaas_openflow::Message;
use rvaas_types::{SimTime, SwitchId};

use crate::incremental::RuleChange;
use crate::snapshot::NetworkSnapshot;

/// When and how the monitor actively polls switch state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PollStrategy {
    /// Never poll; rely on passive notifications only.
    None,
    /// Poll every switch at a fixed interval. Predictable — an adversary who
    /// knows the period can hide between polls.
    Periodic {
        /// The fixed polling interval.
        interval: SimTime,
    },
    /// Poll with exponentially-ish distributed gaps around `mean_interval`
    /// (drawn uniformly from `[0.5, 1.5] * mean`), making poll times hard to
    /// predict, as the paper requires.
    Randomized {
        /// Mean polling interval.
        mean_interval: SimTime,
    },
}

/// Configuration of the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Whether passive notifications (flow-monitor / flow-removed) are
    /// consumed. Disabling this models deployments without monitor support
    /// (the A1 ablation).
    pub passive_enabled: bool,
    /// Active polling strategy.
    pub polling: PollStrategy,
    /// Retention window for removed-rule history.
    pub history_window: SimTime,
    /// RNG seed for randomized polling.
    pub seed: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            passive_enabled: true,
            polling: PollStrategy::Randomized {
                mean_interval: SimTime::from_millis(100),
            },
            history_window: SimTime::from_secs(1),
            seed: 7,
        }
    }
}

/// Counters describing monitoring activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorStats {
    /// Passive events (notify/removed) applied to the snapshot.
    pub passive_events: u64,
    /// Passive events ignored because passive monitoring is disabled.
    pub passive_ignored: u64,
    /// Full-table poll replies applied.
    pub poll_replies: u64,
    /// Poll requests issued.
    pub polls_issued: u64,
}

/// The configuration monitor.
#[derive(Debug)]
pub struct ConfigMonitor {
    config: MonitorConfig,
    snapshot: NetworkSnapshot,
    stats: MonitorStats,
    rng: StdRng,
    /// Rule-level deltas applied since the last [`drain_changes`] call,
    /// in arrival order — the feed for the service plane's delta-publish
    /// path.
    ///
    /// [`drain_changes`]: Self::drain_changes
    pending_changes: Vec<RuleChange>,
    /// Set when a full-table poll reply replaced per-rule knowledge; the
    /// next drain reports "resynced" instead of a delta.
    resynced: bool,
}

impl ConfigMonitor {
    /// Creates a monitor with the given configuration.
    #[must_use]
    pub fn new(config: MonitorConfig) -> Self {
        ConfigMonitor {
            snapshot: NetworkSnapshot::new(config.history_window),
            stats: MonitorStats::default(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            pending_changes: Vec::new(),
            resynced: false,
        }
    }

    /// The current snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &NetworkSnapshot {
        &self.snapshot
    }

    /// Monitoring statistics.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// The monitor configuration.
    #[must_use]
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Consumes a message received from `switch`. Returns `true` if the
    /// snapshot changed.
    pub fn on_switch_message(&mut self, switch: SwitchId, message: &Message, now: SimTime) -> bool {
        match message {
            Message::FlowMonitorNotify { entry, .. } => {
                if !self.config.passive_enabled {
                    self.stats.passive_ignored += 1;
                    return false;
                }
                self.stats.passive_events += 1;
                self.snapshot.record_installed(switch, entry.clone(), now);
                self.pending_changes
                    .push(RuleChange::installed(switch, entry.clone()));
                true
            }
            Message::FlowRemoved { entry, .. } => {
                if !self.config.passive_enabled {
                    self.stats.passive_ignored += 1;
                    return false;
                }
                self.stats.passive_events += 1;
                self.snapshot.record_removed(switch, entry, now);
                self.pending_changes
                    .push(RuleChange::removed(switch, entry.clone()));
                true
            }
            Message::FlowStatsReply { entries, .. } => {
                self.stats.poll_replies += 1;
                self.snapshot
                    .record_full_table(switch, entries.clone(), now);
                // A poll reply replaces a whole table; the per-rule diff is
                // not known, so the accumulated delta is void.
                self.pending_changes.clear();
                self.resynced = true;
                true
            }
            _ => false,
        }
    }

    /// Takes the rule-level deltas applied since the last drain, in arrival
    /// order — the hand-off to the service plane's `try_publish_changes` path,
    /// which advances the epoch store without comparing whole snapshots.
    ///
    /// Returns `None` when a full-table poll reply landed in the window: the
    /// per-rule diff of a resync is unknown, so the caller must fall back to
    /// publishing the full [`snapshot`](Self::snapshot). An empty `Some`
    /// means "nothing changed".
    pub fn drain_changes(&mut self) -> Option<Vec<RuleChange>> {
        if self.resynced {
            self.resynced = false;
            self.pending_changes.clear();
            return None;
        }
        Some(std::mem::take(&mut self.pending_changes))
    }

    /// Returns the delay until the next active poll, or `None` if polling is
    /// disabled. Each call corresponds to scheduling exactly one poll round.
    pub fn next_poll_delay(&mut self) -> Option<SimTime> {
        match self.config.polling {
            PollStrategy::None => None,
            PollStrategy::Periodic { interval } => Some(interval),
            PollStrategy::Randomized { mean_interval } => {
                let mean = mean_interval.as_nanos().max(1);
                let jittered = self.rng.gen_range(mean / 2..=mean + mean / 2);
                Some(SimTime::from_nanos(jittered))
            }
        }
    }

    /// Builds the poll requests for one poll round (one flow-stats request
    /// per switch).
    pub fn poll_requests(&mut self, switches: &[SwitchId]) -> Vec<(SwitchId, Message)> {
        self.stats.polls_issued += switches.len() as u64;
        switches
            .iter()
            .map(|s| (*s, Message::FlowStatsRequest))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_openflow::{Action, FlowEntry, FlowMatch};
    use rvaas_types::PortId;

    fn entry(dst: u32) -> FlowEntry {
        FlowEntry::new(10, FlowMatch::to_ip(dst), vec![Action::Output(PortId(1))])
    }

    fn notify(dst: u32) -> Message {
        Message::FlowMonitorNotify {
            switch: SwitchId(1),
            entry: entry(dst),
            added: true,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn passive_events_update_snapshot() {
        let mut m = ConfigMonitor::new(MonitorConfig::default());
        assert!(m.on_switch_message(SwitchId(1), &notify(5), SimTime::from_millis(1)));
        assert_eq!(m.snapshot().rule_count(), 1);
        assert!(m.on_switch_message(
            SwitchId(1),
            &Message::FlowRemoved {
                switch: SwitchId(1),
                entry: entry(5),
                at: SimTime::from_millis(2),
            },
            SimTime::from_millis(2)
        ));
        assert_eq!(m.snapshot().rule_count(), 0);
        assert_eq!(m.snapshot().history_len(), 1);
        assert_eq!(m.stats().passive_events, 2);
    }

    #[test]
    fn passive_disabled_ignores_notifications_but_polls_still_work() {
        let mut m = ConfigMonitor::new(MonitorConfig {
            passive_enabled: false,
            ..MonitorConfig::default()
        });
        assert!(!m.on_switch_message(SwitchId(1), &notify(5), SimTime::from_millis(1)));
        assert_eq!(m.snapshot().rule_count(), 0);
        assert_eq!(m.stats().passive_ignored, 1);
        assert!(m.on_switch_message(
            SwitchId(1),
            &Message::FlowStatsReply {
                switch: SwitchId(1),
                entries: vec![entry(5), entry(6)],
            },
            SimTime::from_millis(2)
        ));
        assert_eq!(m.snapshot().rule_count(), 2);
        assert_eq!(m.stats().poll_replies, 1);
    }

    #[test]
    fn unrelated_messages_do_not_change_the_snapshot() {
        let mut m = ConfigMonitor::new(MonitorConfig::default());
        assert!(!m.on_switch_message(SwitchId(1), &Message::EchoReply { token: 1 }, SimTime::ZERO));
        assert_eq!(m.snapshot().rule_count(), 0);
    }

    #[test]
    fn poll_strategies_produce_expected_delays() {
        let mut none = ConfigMonitor::new(MonitorConfig {
            polling: PollStrategy::None,
            ..MonitorConfig::default()
        });
        assert_eq!(none.next_poll_delay(), None);

        let mut periodic = ConfigMonitor::new(MonitorConfig {
            polling: PollStrategy::Periodic {
                interval: SimTime::from_millis(50),
            },
            ..MonitorConfig::default()
        });
        assert_eq!(periodic.next_poll_delay(), Some(SimTime::from_millis(50)));
        assert_eq!(periodic.next_poll_delay(), Some(SimTime::from_millis(50)));

        let mut randomized = ConfigMonitor::new(MonitorConfig {
            polling: PollStrategy::Randomized {
                mean_interval: SimTime::from_millis(100),
            },
            ..MonitorConfig::default()
        });
        for _ in 0..50 {
            let d = randomized.next_poll_delay().unwrap();
            assert!(d >= SimTime::from_millis(50) && d <= SimTime::from_millis(150));
        }
        // Randomized delays vary (with overwhelming probability over 50 draws).
        let delays: std::collections::BTreeSet<u64> = (0..50)
            .map(|_| randomized.next_poll_delay().unwrap().as_nanos())
            .collect();
        assert!(delays.len() > 1);
    }

    #[test]
    fn drained_changes_mirror_passive_events_and_void_on_resync() {
        let mut m = ConfigMonitor::new(MonitorConfig::default());
        assert_eq!(m.drain_changes(), Some(Vec::new()), "nothing yet");
        m.on_switch_message(SwitchId(1), &notify(5), SimTime::from_millis(1));
        m.on_switch_message(
            SwitchId(1),
            &Message::FlowRemoved {
                switch: SwitchId(1),
                entry: entry(5),
                at: SimTime::from_millis(2),
            },
            SimTime::from_millis(2),
        );
        let changes = m.drain_changes().expect("no resync in the window");
        assert_eq!(changes.len(), 2);
        assert!(changes[0].installed && !changes[1].installed);
        assert_eq!(m.drain_changes(), Some(Vec::new()), "drain empties");

        // A full-table reply voids the delta: the next drain demands a full
        // publish, the one after resumes delta mode.
        m.on_switch_message(SwitchId(1), &notify(6), SimTime::from_millis(3));
        m.on_switch_message(
            SwitchId(1),
            &Message::FlowStatsReply {
                switch: SwitchId(1),
                entries: vec![entry(6)],
            },
            SimTime::from_millis(4),
        );
        assert_eq!(m.drain_changes(), None);
        m.on_switch_message(SwitchId(1), &notify(7), SimTime::from_millis(5));
        assert_eq!(m.drain_changes().map(|c| c.len()), Some(1));
    }

    #[test]
    fn poll_requests_cover_all_switches() {
        let mut m = ConfigMonitor::new(MonitorConfig::default());
        let reqs = m.poll_requests(&[SwitchId(1), SwitchId(2), SwitchId(3)]);
        assert_eq!(reqs.len(), 3);
        assert!(reqs
            .iter()
            .all(|(_, msg)| matches!(msg, Message::FlowStatsRequest)));
        assert_eq!(m.stats().polls_issued, 3);
    }
}
