//! Byte-level and structure-aware mutators.
//!
//! The mutators are deliberately protocol-shaped: besides classic havoc
//! (bit flips, truncation, insertion, duplication, splicing) they stomp
//! 32-bit big-endian words with boundary values — exactly the shape of the
//! length prefixes and element counts the RVaaS codecs read — and flip
//! single bytes to "interesting" values such as codec tags and protocol
//! version bytes. That is what lets a dumb offline fuzzer reach the deep
//! count-validation and version-negotiation paths.

use proptest::test_runner::TestRng;
use rvaas_client::{MAX_FRAME_LEN, SYNC_PROTOCOL_VERSION};

use crate::corpus::Corpus;

/// Inputs never grow past this size: the targets' allocation properties
/// bound work per byte, so giant inputs only waste budget.
pub const MAX_INPUT_LEN: usize = 1 << 16;

/// 32-bit big-endian values that probe length-prefix and count handling.
const BOUNDARY_WORDS: [u32; 8] = [
    0,
    1,
    0x7f,
    0xffff,
    0x7fff_ffff,
    0xffff_ffff,
    MAX_FRAME_LEN as u32,
    (MAX_FRAME_LEN + 1) as u32,
];

/// Single bytes that double as codec tags, payload tags or version bytes.
const INTERESTING_BYTES: [u8; 14] = [
    0x00,
    0x01,
    0x02,
    0x03,
    0x1f, // the least Rice parameter a digest list may carry
    0x40, // one past the greatest
    0x55, // sync request tag
    0x56, // sync response tag
    0x57, // sync reject tag
    0x7f,
    0x80,
    0xff,
    SYNC_PROTOCOL_VERSION,
    SYNC_PROTOCOL_VERSION ^ 0xf0, // wrong major version
];

/// Applies 1–4 random mutation operators to `seed`, occasionally splicing
/// in another corpus entry, and returns the mutated input.
pub fn mutate(rng: &mut TestRng, corpus: &Corpus, seed: &[u8]) -> Vec<u8> {
    let mut out = seed.to_vec();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        apply_one(rng, corpus, &mut out);
    }
    out.truncate(MAX_INPUT_LEN);
    out
}

fn apply_one(rng: &mut TestRng, corpus: &Corpus, buf: &mut Vec<u8>) {
    match rng.below(8) {
        0 => bit_flip(rng, buf),
        1 => overwrite_byte(rng, buf),
        2 => truncate(rng, buf),
        3 => insert_random(rng, buf),
        4 => duplicate_slice(rng, buf),
        5 => stomp_word(rng, buf),
        6 => interesting_byte(rng, buf),
        _ => splice(rng, corpus, buf),
    }
}

fn offset(rng: &mut TestRng, len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    Some((rng.next_u64() % len as u64) as usize)
}

fn bit_flip(rng: &mut TestRng, buf: &mut [u8]) {
    if let Some(i) = offset(rng, buf.len()) {
        buf[i] ^= 1 << rng.below(8);
    }
}

fn overwrite_byte(rng: &mut TestRng, buf: &mut [u8]) {
    if let Some(i) = offset(rng, buf.len()) {
        buf[i] = rng.next_u64() as u8;
    }
}

fn truncate(rng: &mut TestRng, buf: &mut Vec<u8>) {
    if let Some(i) = offset(rng, buf.len()) {
        buf.truncate(i);
    }
}

fn insert_random(rng: &mut TestRng, buf: &mut Vec<u8>) {
    let at = offset(rng, buf.len() + 1).unwrap_or(0);
    let n = 1 + rng.below(8) as usize;
    let fresh: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    buf.splice(at..at, fresh);
}

fn duplicate_slice(rng: &mut TestRng, buf: &mut Vec<u8>) {
    let Some(start) = offset(rng, buf.len()) else {
        return;
    };
    let max_len = (buf.len() - start).min(32);
    let n = 1 + (rng.next_u64() % max_len as u64) as usize;
    let chunk: Vec<u8> = buf[start..start + n].to_vec();
    let at = offset(rng, buf.len() + 1).unwrap_or(0);
    buf.splice(at..at, chunk);
}

/// Overwrites four bytes with a big-endian boundary value — the classic
/// length-prefix/count attack, aimed at whatever u32 happens to live there.
fn stomp_word(rng: &mut TestRng, buf: &mut [u8]) {
    if buf.len() < 4 {
        return;
    }
    let at = (rng.next_u64() % (buf.len() - 3) as u64) as usize;
    let word = BOUNDARY_WORDS[rng.below(BOUNDARY_WORDS.len() as u64) as usize];
    buf[at..at + 4].copy_from_slice(&word.to_be_bytes());
}

fn interesting_byte(rng: &mut TestRng, buf: &mut [u8]) {
    if let Some(i) = offset(rng, buf.len()) {
        buf[i] = INTERESTING_BYTES[rng.below(INTERESTING_BYTES.len() as u64) as usize];
    }
}

/// Replaces the tail of `buf` with the tail of another corpus entry:
/// crosses over two structurally valid inputs.
fn splice(rng: &mut TestRng, corpus: &Corpus, buf: &mut Vec<u8>) {
    if corpus.entries.is_empty() {
        return;
    }
    let other = &corpus.entries[(rng.next_u64() % corpus.entries.len() as u64) as usize].bytes;
    let (Some(cut_a), Some(cut_b)) = (offset(rng, buf.len() + 1), offset(rng, other.len() + 1))
    else {
        return;
    };
    buf.truncate(cut_a);
    buf.extend_from_slice(&other[cut_b.min(other.len())..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusEntry;

    fn demo_corpus() -> Corpus {
        Corpus {
            target: "demo".to_string(),
            entries: vec![
                CorpusEntry {
                    name: "a".to_string(),
                    bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                CorpusEntry {
                    name: "b".to_string(),
                    bytes: vec![9, 10, 11, 12],
                },
            ],
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let corpus = demo_corpus();
        let mut rng_a = TestRng::for_test("determinism");
        let mut rng_b = TestRng::for_test("determinism");
        for _ in 0..100 {
            assert_eq!(
                mutate(&mut rng_a, &corpus, &corpus.entries[0].bytes),
                mutate(&mut rng_b, &corpus, &corpus.entries[0].bytes)
            );
        }
    }

    #[test]
    fn mutation_handles_empty_and_tiny_seeds() {
        let corpus = demo_corpus();
        let mut rng = TestRng::for_test("tiny");
        for seed in [&[][..], &[0][..], &[1, 2][..]] {
            for _ in 0..200 {
                let out = mutate(&mut rng, &corpus, seed);
                assert!(out.len() <= MAX_INPUT_LEN);
            }
        }
    }

    #[test]
    fn mutation_respects_the_size_cap() {
        let corpus = demo_corpus();
        let mut rng = TestRng::for_test("cap");
        let mut input = vec![0xaa; MAX_INPUT_LEN];
        for _ in 0..50 {
            input = mutate(&mut rng, &corpus, &input);
            assert!(input.len() <= MAX_INPUT_LEN);
        }
    }
}
