//! The `serve-mixed` request mix: a pure function of the workload
//! seed, the session and the request index, so two runs with one seed
//! send the same requests in the same order on each session.

use lpt_gossip::spec::{AlgorithmSpec, RunSpecKey};

/// Keys in the hot set, warmed during set-up. Far below the server's
/// default cache capacity (128), so only cold churn can evict them.
pub const HOT_KEYS: usize = 16;
/// Every block of `BLOCK` consecutive requests of a session holds
/// exactly `HOT` hot requests, `DISK` cold `duo-disk` solves and one
/// cold `planted-hs` solve, in an order shuffled by the seed: the shares
/// are exact, so they add no run-to-run spread.
const BLOCK: u64 = 40;
const HOT: u64 = 36;
const DISK: u64 = 3;
/// Network size (and element count) of cold keys.
const COLD_N: u64 = 256;
/// Network size and element count of hot keys: small, so warming is
/// cheap and a hit replays a short reply.
const HOT_N: u64 = 64;
/// Cold replies per family also compared byte for byte with an
/// in-process `registry::execute` of the same key.
pub const REGISTRY_CHECKS: usize = 4;

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The `j`-th hot key.
    Hot(usize),
    /// A fresh `duo-disk` Low-Load solve with this seed.
    ColdDisk(u64),
    /// A fresh `planted-hs` hitting-set solve with this seed.
    ColdHs(u64),
}

/// SplitMix64: a full-period mixing step, used to derive every seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the `i`-th seed of stream `stream` from `seed`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream) ^ i)
}

/// The request session `session` sends as its `index`-th.
pub fn pick(seed: u64, session: u64, index: u64) -> Pick {
    let h = derive(seed, 1 + session, index);
    let fresh = derive(h, 0xC01D, 0);
    match slot(seed, session, index / BLOCK, index % BLOCK) {
        s if s < HOT => Pick::Hot((h >> 32) as usize % HOT_KEYS),
        s if s < HOT + DISK => Pick::ColdDisk(fresh),
        _ => Pick::ColdHs(fresh),
    }
}

/// Position `offset` of block `block` under the block's seeded
/// Fisher–Yates permutation of `0..BLOCK`.
fn slot(seed: u64, session: u64, block: u64, offset: u64) -> u64 {
    let mut perm: [u64; BLOCK as usize] = std::array::from_fn(|i| i as u64);
    let mut x = derive(seed, 0x5107 + session, block);
    for i in (1..perm.len()).rev() {
        x = splitmix(x);
        perm.swap(i, (x % (i as u64 + 1)) as usize);
    }
    perm[offset as usize]
}

/// The `j`-th hot key of the workload seed.
pub fn hot_key(seed: u64, j: usize) -> RunSpecKey {
    RunSpecKey::new("duo-disk", HOT_N, HOT_N, derive(seed, 0x407, j as u64))
}

/// The key of a cold pick.
pub fn cold_key(pick: Pick) -> RunSpecKey {
    match pick {
        Pick::ColdDisk(s) => RunSpecKey::new("duo-disk", COLD_N, COLD_N, s),
        Pick::ColdHs(s) => {
            let mut key = RunSpecKey::new("planted-hs", COLD_N, COLD_N, s);
            key.algorithm = AlgorithmSpec::HittingSet { d: 3 };
            key
        }
        Pick::Hot(_) => panic!("hot picks name a key of the hot set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, session: u64) -> Vec<Pick> {
        (0..2000).map(|i| pick(seed, session, i)).collect()
    }

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        assert_eq!(sequence(7, 0), sequence(7, 0));
        assert_eq!(sequence(7, 1), sequence(7, 1));
        assert_ne!(sequence(7, 0), sequence(8, 0));
        assert_ne!(sequence(7, 0), sequence(7, 1));
        assert_eq!(hot_key(7, 3), hot_key(7, 3));
        assert_ne!(hot_key(7, 3), hot_key(8, 3));
    }

    #[test]
    fn every_block_has_the_stated_shares() {
        // 2000 requests are 50 whole blocks of 40.
        let picks: Vec<Pick> = (0..4).flat_map(|s| sequence(11, s)).collect();
        for block in picks.chunks(BLOCK as usize) {
            let count = |f: fn(&Pick) -> bool| block.iter().filter(|p| f(p)).count();
            assert_eq!(count(|p| matches!(p, Pick::Hot(_))), 36);
            assert_eq!(count(|p| matches!(p, Pick::ColdDisk(_))), 3);
            assert_eq!(count(|p| matches!(p, Pick::ColdHs(_))), 1);
        }
        // The order within blocks differs from block to block.
        assert_ne!(
            picks[..40].iter().position(|p| !matches!(p, Pick::Hot(_))),
            picks[40..80]
                .iter()
                .position(|p| !matches!(p, Pick::Hot(_)))
        );
        // Every hot key is used, and cold seeds never repeat.
        for j in 0..HOT_KEYS {
            assert!(picks.contains(&Pick::Hot(j)));
        }
        let mut cold: Vec<u64> = picks
            .iter()
            .filter_map(|p| match p {
                Pick::ColdDisk(s) | Pick::ColdHs(s) => Some(*s),
                Pick::Hot(_) => None,
            })
            .collect();
        let total = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), total);
    }

    #[test]
    fn cold_keys_are_the_stated_specs() {
        let disk = cold_key(Pick::ColdDisk(5));
        assert_eq!(
            (disk.workload.as_str(), disk.n, disk.elements),
            ("duo-disk", 256, 256)
        );
        let hs = cold_key(Pick::ColdHs(5));
        assert_eq!(hs.workload, "planted-hs");
        assert_eq!(hs.algorithm, AlgorithmSpec::HittingSet { d: 3 });
    }
}
