//! The sync wire's digest-list code as a property of the public encoder:
//! every strictly ascending digest set comes back from a Reset and from a
//! Delta unchanged.

use proptest::prelude::*;
use rvaas_client::{decode_inband, FlowDigest, InbandMessage, SyncPayload, SyncResponse};

/// An ascending, distinct digest set drawn from `raw` in one of four
/// shapes: uniform, clustered (runs of adjacent values, wrapping past
/// `u64::MAX`), spread over every magnitude, and uniform plus both ends.
fn digest_set(shape: u8, base: u64, raw: &[u64]) -> Vec<FlowDigest> {
    let mut set: Vec<u64> = raw
        .iter()
        .map(|&v| match shape {
            0 | 3 => v,
            1 => base.wrapping_add(v % 4096),
            _ => v >> (v % 64),
        })
        .collect();
    if shape == 3 {
        set.extend([0, 1, u64::MAX - 1, u64::MAX]);
    }
    set.sort_unstable();
    set.dedup();
    set.into_iter().map(FlowDigest).collect()
}

fn roundtrip(response: &SyncResponse) -> SyncResponse {
    match decode_inband(&response.encode()) {
        Ok(InbandMessage::SyncResponse(decoded)) => decoded,
        other => panic!("a Reset did not come back: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ascending_digest_sets_survive_the_wire(
        shape in 0u8..4,
        base in any::<u64>(),
        raw in collection::vec(any::<u64>(), 0..50_000),
    ) {
        let full = digest_set(shape, base, &raw);
        let reset = SyncResponse {
            session: 3,
            serial: 9,
            payload: SyncPayload::Reset { full: full.clone() },
            trace: base,
        };
        prop_assert_eq!(roundtrip(&reset), reset);

        // A Delta's two lists: the set's halves, interleaved.
        let (added, removed): (Vec<_>, Vec<_>) =
            full.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let delta = SyncResponse {
            session: 3,
            serial: 9,
            payload: SyncPayload::Delta {
                added: added.into_iter().map(|(_, d)| *d).collect(),
                removed: removed.into_iter().map(|(_, d)| *d).collect(),
                reverified: Vec::new(),
            },
            trace: 0,
        };
        prop_assert_eq!(roundtrip(&delta), delta);
    }
}
