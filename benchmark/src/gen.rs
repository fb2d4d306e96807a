//! Seeded input generation: the only things `--seed` drives are the order
//! in which each connection asks its queries and the order in which tenants
//! are churned. The daemon itself never sees the seed.

/// splitmix64: small, fast, and good enough to shuffle a request order. Own
/// implementation so the generator does not depend on the workspace's `rand`
/// shim.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough index in `0..n` (`n` is at most a few hundred keys, so
    /// the modulo bias is far below anything the benchmark could resolve).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The request order of one HTTP connection: an endless stream of indices
/// into the workload's key table. Connections get decorrelated streams.
pub fn request_stream(seed: u64, connection: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (connection as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
}

/// The churn order: which tenant is reconfigured at each epoch. A tenant is
/// never picked twice in a row, so every epoch removes one tenant's rules
/// and installs another's.
#[derive(Debug, Clone)]
pub struct ChurnOrder {
    rng: SplitMix64,
    tenants: usize,
    previous: usize,
}

impl ChurnOrder {
    pub fn new(seed: u64, tenants: usize) -> Self {
        assert!(tenants >= 2, "churn needs at least two tenants");
        ChurnOrder {
            rng: SplitMix64::new(seed ^ 0x5eed_c4a2_11ee_d00d),
            tenants,
            previous: usize::MAX,
        }
    }
}

impl Iterator for ChurnOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let tenant = self.rng.below(self.tenants);
            if tenant != self.previous {
                self.previous = tenant;
                return Some(tenant);
            }
        }
    }
}

/// The first `epochs` entries of the churn order.
pub fn churn_order(seed: u64, tenants: usize, epochs: usize) -> Vec<usize> {
    ChurnOrder::new(seed, tenants).take(epochs).collect()
}

/// FNV-1a over a byte slice, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// How many leading requests of each connection go into the printed hash.
const HASHED_REQUESTS: usize = 4096;

/// A fingerprint of everything the seed generated for one run: the first
/// requests of every connection plus the whole churn order.
pub fn input_hash(seed: u64, connections: usize, keys: usize, churn: &[usize]) -> u64 {
    let mut h = FNV_OFFSET;
    for connection in 0..connections {
        let mut stream = request_stream(seed, connection);
        for _ in 0..HASHED_REQUESTS {
            h = fnv1a(h, &(stream.below(keys) as u32).to_le_bytes());
        }
    }
    for tenant in churn {
        h = fnv1a(h, &(*tenant as u32).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let a = input_hash(7, 2, 120, &churn_order(7, 32, 100));
        let b = input_hash(7, 2, 120, &churn_order(7, 32, 100));
        let c = input_hash(8, 2, 120, &churn_order(8, 32, 100));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn connections_get_different_streams() {
        let mut a = request_stream(1, 0);
        let mut b = request_stream(1, 1);
        let first_a: Vec<usize> = (0..32).map(|_| a.below(120)).collect();
        let first_b: Vec<usize> = (0..32).map(|_| b.below(120)).collect();
        assert_ne!(first_a, first_b);
    }

    #[test]
    fn churn_order_never_repeats_a_tenant_back_to_back() {
        let order = churn_order(3, 4, 500);
        assert_eq!(order.len(), 500);
        assert!(order.windows(2).all(|w| w[0] != w[1]));
        assert!(order.iter().all(|t| *t < 4));
    }
}
