//! Rule identity as sync ships it: the digest of one installed flow entry,
//! the net digests of a change list, which an epoch's delta records, and
//! the [`DigestSet`] of an epoch, its predecessor's with those applied.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use rvaas::{NetworkSnapshot, RuleChange};
use rvaas_client::FlowDigest;
use rvaas_openflow::FlowEntry;
use rvaas_types::{Chunked, SwitchId};

/// Computes the digest identifying one installed flow entry.
///
/// Stats and cookies are deliberately excluded: two entries that match and
/// act identically are the same rule as far as verification is concerned.
#[must_use]
pub fn digest_entry(switch: SwitchId, entry: &FlowEntry) -> FlowDigest {
    // DefaultHasher::new() is deterministic (fixed-key SipHash), which is all
    // the simulation needs; a deployment would swap in a keyed or
    // cryptographic digest here.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    switch.hash(&mut hasher);
    entry.priority.hash(&mut hasher);
    entry.flow_match.hash(&mut hasher);
    entry.actions.hash(&mut hasher);
    FlowDigest(hasher.finish())
}

/// Digests of every entry in a snapshot.
#[must_use]
pub fn digest_snapshot(snapshot: &NetworkSnapshot) -> BTreeSet<FlowDigest> {
    snapshot
        .tables()
        .flat_map(|(switch, entries)| entries.iter().map(move |e| digest_entry(switch, e)))
        .collect()
}

/// The digest set of one epoch: ascending and distinct — the order a sync
/// `Reset` ships — held as a [`Chunked`] sequence of at most
/// [`DIGEST_CHUNK`] digests per chunk. A successor shares every chunk its
/// delta does not land in and copies only the rest, so a publish copies
/// `O(delta · DIGEST_CHUNK)` digests plus the chunk-pointer list, not the
/// set; the [content digest](DigestSet::content_digest) is kept beside the
/// chunks and carried the same way. Two sets are equal when they hold the
/// same digests, however they are chunked.
#[derive(Debug, Clone, Default)]
pub struct DigestSet {
    pub(crate) digests: Chunked<FlowDigest, DIGEST_CHUNK>,
    content: u64,
}

/// The most digests one chunk of a [`DigestSet`] holds. A digest is eight
/// bytes and owns nothing, so a chunk copies as one `memcpy`; what a publish
/// pays per chunk is the pointer list every successor copies, so the chunks
/// are large: a `fat_tree(16,64)` set of 344 064 digests is a few hundred.
pub const DIGEST_CHUNK: usize = 1024;

/// Past one change per this many digests, [`DigestSet::apply`] rebuilds the
/// set in one merge instead of editing it chunk by chunk. An edit shifts
/// about half a chunk in place; a merge takes a few steps per digest of the
/// whole set. At one change per chunk, the earlier cut, the 8-rule publishes
/// of a few-thousand-rule network merged on every epoch and cost `hot_query`
/// about a tenth of its publish.
const MERGE_EVERY: usize = 64;

/// The content digest of a digest set, from scratch: the wrapping sum of a
/// per-digest mix. Commutative, so it depends on the set alone (not on the
/// publish path or order), and invertible, so [`EpochStore`](crate::EpochStore) carries it from
/// epoch to epoch by subtracting what left and adding what arrived instead of
/// folding the whole set per publish. Nothing pins its values: they are
/// only ever compared with each other.
#[must_use]
pub fn content_digest_of(digests: impl IntoIterator<Item = FlowDigest>) -> u64 {
    digests
        .into_iter()
        .fold(0, |acc, d| acc.wrapping_add(mix(d)))
}

/// The splitmix64 finaliser: spreads a digest over all 64 bits so that sums
/// of related digests do not cancel.
fn mix(digest: FlowDigest) -> u64 {
    let mut z = digest.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DigestSet {
    /// One `u64` identifying the set: [`content_digest_of`] its digests.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        self.content
    }

    /// Number of digests in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// True when the set holds no digest.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The digests, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &FlowDigest> {
        self.digests.iter()
    }

    /// The digests, ascending, in one vector: the body of a sync `Reset`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<FlowDigest> {
        self.digests.to_vec()
    }

    /// True when `digest` is in the set.
    #[must_use]
    pub fn contains(&self, digest: &FlowDigest) -> bool {
        let at = self.digests.partition_point(|held| held < digest);
        self.digests.get(at) == Some(digest)
    }

    /// The digests of `self` that `other` lacks, ascending.
    pub fn difference<'a>(&'a self, other: &'a DigestSet) -> impl Iterator<Item = &'a FlowDigest> {
        self.iter().filter(move |d| !other.contains(d))
    }

    /// Takes `removed` out and puts `added` in, both ascending and disjoint.
    /// A removal of a digest the set lacks and an arrival of one it holds
    /// change nothing, so the content digest moves only by what actually
    /// left or arrived and stays [`content_digest_of`] the set. Each change
    /// edits the chunk it lands in, copying it the first time; past one
    /// change per [`MERGE_EVERY`] digests (the first publish) the set is
    /// rebuilt in one merge instead.
    pub(crate) fn apply(&mut self, removed: &[FlowDigest], added: &[FlowDigest]) {
        if (removed.len() + added.len()) * MERGE_EVERY > self.len() {
            let mut merged = Vec::with_capacity(self.len() + added.len());
            let (mut gone, mut new) = (removed.iter().peekable(), added.iter().peekable());
            for held in self.digests.iter() {
                while gone.next_if(|d| *d < held).is_some() {}
                while let Some(d) = new.next_if(|d| *d < held) {
                    merged.push(*d);
                    self.content = self.content.wrapping_add(mix(*d));
                }
                new.next_if_eq(&held);
                if gone.next_if_eq(&held).is_some() {
                    self.content = self.content.wrapping_sub(mix(*held));
                } else {
                    merged.push(*held);
                }
            }
            for d in new {
                merged.push(*d);
                self.content = self.content.wrapping_add(mix(*d));
            }
            self.digests = merged.into_iter().collect();
            return;
        }
        for digest in removed {
            let at = self.digests.partition_point(|held| held < digest);
            if self.digests.get(at) == Some(digest) {
                self.digests.remove(at);
                self.content = self.content.wrapping_sub(mix(*digest));
            }
        }
        for digest in added {
            let at = self.digests.partition_point(|held| held < digest);
            if self.digests.get(at) != Some(digest) {
                self.digests.insert(at, *digest);
                self.content = self.content.wrapping_add(mix(*digest));
            }
        }
    }
}

impl PartialEq for DigestSet {
    fn eq(&self, other: &DigestSet) -> bool {
        self.content == other.content && self.digests == other.digests
    }
}

impl Eq for DigestSet {}

impl PartialEq<BTreeSet<FlowDigest>> for DigestSet {
    fn eq(&self, other: &BTreeSet<FlowDigest>) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl PartialEq<DigestSet> for BTreeSet<FlowDigest> {
    fn eq(&self, other: &DigestSet) -> bool {
        other == self
    }
}

/// The net digest-level delta of a change list: the digests it added and
/// the digests it removed, each ascending. One sort of `(digest, list
/// position)` pairs puts each digest's changes together in list order; a
/// change undoing an earlier one of the list (a flap) cancels it, like
/// cancellation across epochs, and a repeat of one is a no-op. The model
/// still gets both changes of a flap: the changed region must cover it,
/// exactly as `delta_between` keeps the selections of flapped epochs.
pub(crate) fn net_digests(changes: &[RuleChange]) -> (Vec<FlowDigest>, Vec<FlowDigest>) {
    let mut points: Vec<(FlowDigest, usize)> = changes
        .iter()
        .enumerate()
        .map(|(at, change)| (digest_entry(change.switch, &change.entry), at))
        .collect();
    points.sort_unstable();
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    for same in points.chunk_by(|a, b| a.0 == b.0) {
        // `Some(true)`: net added, `Some(false)`: net removed.
        let mut net = None;
        for (_, at) in same {
            let installed = changes[*at].installed;
            net = match net {
                Some(was) if was != installed => None,
                None => Some(installed),
                same => same,
            };
        }
        match net {
            Some(true) => added.push(same[0].0),
            Some(false) => removed.push(same[0].0),
            None => {}
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_openflow::{Action, FlowMatch};
    use rvaas_types::PortId;

    fn entry(dst: u32) -> FlowEntry {
        FlowEntry::new(10, FlowMatch::to_ip(dst), vec![Action::Output(PortId(1))])
    }

    #[test]
    fn digests_ignore_stats_and_cookie_but_not_actions() {
        let a = entry(5);
        let mut b = entry(5);
        b.stats.packets = 99;
        b.cookie = rvaas_types::FlowCookie(7);
        assert_eq!(digest_entry(SwitchId(1), &a), digest_entry(SwitchId(1), &b));
        let c = FlowEntry::new(10, FlowMatch::to_ip(5), vec![Action::Drop]);
        assert_ne!(digest_entry(SwitchId(1), &a), digest_entry(SwitchId(1), &c));
        assert_ne!(digest_entry(SwitchId(2), &a), digest_entry(SwitchId(1), &a));
    }

    /// `set` minus `removed` plus `added`, through [`DigestSet::apply`].
    fn patched(
        set: &DigestSet,
        removed: &BTreeSet<FlowDigest>,
        added: &BTreeSet<FlowDigest>,
    ) -> DigestSet {
        let ascending = |ds: &BTreeSet<FlowDigest>| ds.iter().copied().collect::<Vec<_>>();
        let mut next = set.clone();
        next.apply(&ascending(removed), &ascending(added));
        next
    }

    #[test]
    fn patched_digest_set_is_the_set_and_carries_its_content_digest() {
        let set = |ds: &[u64]| ds.iter().map(|d| FlowDigest(*d)).collect::<BTreeSet<_>>();
        let base = patched(&DigestSet::default(), &set(&[]), &set(&[10, 20, 30, 40]));
        assert_eq!(base, set(&[10, 20, 30, 40]));
        // Both ends, a run in the middle, a removal of what is not held and
        // an arrival of what already is.
        let next = patched(&base, &set(&[10, 25, 40]), &set(&[5, 20, 35, 50]));
        assert_eq!(next, set(&[5, 20, 30, 35, 50]));
        assert_eq!(next.content_digest(), content_digest_of(next.to_vec()));
        assert_ne!(next.content_digest(), base.content_digest());
        // Back again: the content digest is a function of the set alone.
        let back = patched(&next, &set(&[5, 35, 50]), &set(&[10, 40]));
        assert_eq!(back, base);
    }

    /// Asserts the chunk invariants [`Chunked`] documents.
    fn assert_runs_well_formed(set: &DigestSet, step: usize) {
        let runs: Vec<&[FlowDigest]> = set.digests.chunks().collect();
        assert!(
            runs.iter()
                .all(|run| !run.is_empty() && run.len() <= DIGEST_CHUNK),
            "step {step}: chunk sizes {:?}",
            runs.iter().map(|run| run.len()).collect::<Vec<_>>()
        );
        assert!(
            runs.len() < 2 || runs.iter().all(|run| run.len() >= DIGEST_CHUNK / 4),
            "step {step}: a short chunk beside others"
        );
        assert!(
            runs.len() <= set.len().div_ceil(DIGEST_CHUNK / 4),
            "step {step}"
        );
        assert_eq!(runs.iter().map(|run| run.len()).sum::<usize>(), set.len());
        assert!(
            set.to_vec().windows(2).all(|pair| pair[0] < pair[1]),
            "step {step}: not ascending across runs"
        );
    }

    #[test]
    fn patched_digest_sets_equal_a_set_oracle_across_runs() {
        // Grow to a few dozen chunks, churn a handful at a time (one chunk
        // copy per change), drop ranges and drain to empty (one merge), and
        // refill, over a domain small enough that removals hit held
        // digests, arrivals hit held ones and changes straddle chunk bounds.
        let mut state = 0x5eed_u64;
        let mut draw = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(FlowDigest(state)) % bound
        };
        let mut set = DigestSet::default();
        let mut oracle: BTreeSet<FlowDigest> = BTreeSet::new();
        for step in 0..300 {
            let held: Vec<FlowDigest> = oracle.iter().copied().collect();
            let mut removed = BTreeSet::new();
            let mut added = BTreeSet::new();
            match step % 100 {
                0..=19 => (0..draw(1500)).for_each(|_| {
                    added.insert(FlowDigest(draw(20_000)));
                }),
                20..=69 => {
                    for _ in 0..draw(9) {
                        if !held.is_empty() {
                            removed.insert(held[draw(held.len() as u64) as usize]);
                        }
                        removed.insert(FlowDigest(draw(20_000)));
                        added.insert(FlowDigest(draw(20_000)));
                    }
                }
                70..=97 => {
                    let start = draw(held.len() as u64 + 1) as usize;
                    let end = held.len().min(start + draw(500) as usize);
                    removed.extend(&held[start..end]);
                }
                _ => removed.extend(&held),
            }
            added.retain(|d| !removed.contains(d));
            let next = patched(&set, &removed, &added);
            for d in &removed {
                oracle.remove(d);
            }
            oracle.extend(&added);
            assert_eq!(next, oracle, "step {step}");
            assert_eq!(next.to_vec(), oracle.iter().copied().collect::<Vec<_>>());
            assert_eq!(
                next.content_digest(),
                content_digest_of(oracle.iter().copied())
            );
            assert_runs_well_formed(&next, step);
            for probe in (0..64).map(|_| FlowDigest(draw(20_000))) {
                assert_eq!(
                    next.contains(&probe),
                    oracle.contains(&probe),
                    "step {step}"
                );
            }
            let gone: Vec<_> = set.difference(&next).copied().collect();
            assert_eq!(
                gone,
                removed
                    .iter()
                    .filter(|d| set.contains(d))
                    .copied()
                    .collect::<Vec<_>>()
            );
            if step % 100 == 98 {
                assert!(next.is_empty(), "step {step}: drained");
            }
            set = next;
        }
    }
}
