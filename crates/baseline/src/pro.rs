//! PRO: parallel radix-partitioned hash join (Balkesen et al., ICDE 2013,
//! the paper's reference \[7\]).
//!
//! Both sides are radix-partitioned on their hashed keys (MSB-first, up to
//! `bits_per_pass` bits per pass so the scatter fan-out stays TLB-friendly),
//! then each partition pair is joined with a small, cache-resident hash
//! table. PRO pays a constant partitioning cost but keeps probe misses low —
//! the flat ~5 cycles/tuple line of Table 2 in the A-Store paper.

/// Tuning for the radix join.
#[derive(Debug, Clone, Copy)]
pub struct RadixConfig {
    /// Total radix bits (partition count = `2^bits`).
    pub bits: u32,
    /// Maximum bits per partitioning pass (fan-out limit).
    pub bits_per_pass: u32,
}

impl Default for RadixConfig {
    fn default() -> Self {
        RadixConfig { bits: 10, bits_per_pass: 6 }
    }
}

/// A multiplicative scramble (Knuth's 2^32 / φ) so skewed key spaces
/// spread evenly.
#[inline]
fn scramble(key: u32) -> u32 {
    key.wrapping_mul(0x9E37_79B1)
}

/// The partition id of a key: the low `bits` bits of its scramble.
#[inline]
fn part_of(key: u32, bits: u32) -> usize {
    (scramble(key) & ((1u32 << bits) - 1)) as usize
}

/// One partition's chained hash table over its build keys. A key's bucket
/// is taken from the scramble bits just above the `bits` that chose its
/// partition: those low bits are the same for every key of a partition, so
/// a bucket read from them would put the whole partition in one chain.
struct PartitionTable {
    /// The radix bits of the partitioning.
    bits: u32,
    /// Bucket count − 1 (a power of two minus one).
    mask: u32,
    /// The first key index of each bucket's chain, −1 when empty.
    heads: Vec<i32>,
    /// The next key index in the same chain, −1 at its end.
    next: Vec<i32>,
}

impl PartitionTable {
    fn build(keys: &[u32], bits: u32) -> Self {
        let n_buckets = keys.len().next_power_of_two().max(8);
        let mut table = PartitionTable {
            bits,
            mask: (n_buckets - 1) as u32,
            heads: vec![-1; n_buckets],
            next: vec![-1; keys.len()],
        };
        for (i, &k) in keys.iter().enumerate() {
            let b = table.bucket(k);
            table.next[i] = table.heads[b];
            table.heads[b] = i as i32;
        }
        table
    }

    #[inline]
    fn bucket(&self, key: u32) -> usize {
        ((scramble(key) >> self.bits) & self.mask) as usize
    }

    /// The indices of the build keys in `key`'s bucket.
    #[inline]
    fn chain(&self, key: u32) -> impl Iterator<Item = usize> + '_ {
        let head = self.heads[self.bucket(key)];
        std::iter::successors((head >= 0).then_some(head as usize), |&i| {
            let e = self.next[i];
            (e >= 0).then_some(e as usize)
        })
    }
}

/// Radix-partitions `(keys, payloads)` into `2^cfg.bits` buckets, returning
/// the reordered pairs plus partition boundaries: partition `p` occupies
/// `bounds[p]..bounds[p + 1]`, in ascending `p` order.
pub fn radix_partition(
    keys: &[u32],
    payloads: &[i64],
    cfg: RadixConfig,
) -> (Vec<u32>, Vec<i64>, Vec<usize>) {
    assert_eq!(keys.len(), payloads.len(), "columns misaligned");
    let total_bits = cfg.bits;
    let mut out_keys = keys.to_vec();
    let mut out_pays = payloads.to_vec();
    let mut scratch_keys = vec![0u32; keys.len()];
    let mut scratch_pays = vec![0i64; keys.len()];

    // MSB-first: each pass subdivides every current range by the next
    // `pass_bits` of the partition id, keeping final ranges in ascending
    // partition-id order.
    let mut ranges: Vec<std::ops::Range<usize>> = std::iter::once(0..keys.len()).collect();
    let mut remaining = total_bits;
    let mut shift = total_bits;
    while remaining > 0 {
        let pass_bits = cfg.bits_per_pass.min(remaining);
        shift -= pass_bits;
        let fanout = 1usize << pass_bits;
        let mask = fanout - 1;
        let mut new_ranges = Vec::with_capacity(ranges.len() * fanout);
        for range in &ranges {
            let (start, end) = (range.start, range.end);
            let mut hist = vec![0usize; fanout];
            for &k in &out_keys[start..end] {
                hist[(part_of(k, total_bits) >> shift) & mask] += 1;
            }
            let mut cursors = vec![0usize; fanout];
            let mut acc = start;
            for (sub, &h) in hist.iter().enumerate() {
                cursors[sub] = acc;
                new_ranges.push(acc..acc + h);
                acc += h;
            }
            for i in start..end {
                let k = out_keys[i];
                let sub = (part_of(k, total_bits) >> shift) & mask;
                let dst = cursors[sub];
                cursors[sub] += 1;
                scratch_keys[dst] = k;
                scratch_pays[dst] = out_pays[i];
            }
            out_keys[start..end].copy_from_slice(&scratch_keys[start..end]);
            out_pays[start..end].copy_from_slice(&scratch_pays[start..end]);
        }
        ranges = new_ranges;
        remaining -= pass_bits;
    }

    let mut bounds = Vec::with_capacity(ranges.len() + 1);
    bounds.push(0);
    for r in &ranges {
        bounds.push(r.end);
    }
    (out_keys, out_pays, bounds)
}

/// The full radix join: partition both sides, then join each partition pair
/// with a small chained table. Returns `(matches, payload_sum)` where the
/// sum is over matched *build* payloads.
pub fn pro_join_sum(
    build_keys: &[u32],
    build_payloads: &[i64],
    probe_keys: &[u32],
    cfg: RadixConfig,
) -> (u64, i64) {
    let probe_payloads = vec![0i64; probe_keys.len()];
    let (bk, bp, bb) = radix_partition(build_keys, build_payloads, cfg);
    let (pk, _pp, pb) = radix_partition(probe_keys, &probe_payloads, cfg);
    debug_assert_eq!(bb.len(), pb.len());

    let mut matches = 0u64;
    let mut sum = 0i64;
    for p in 0..(bb.len() - 1) {
        let b_range = bb[p]..bb[p + 1];
        let p_range = pb[p]..pb[p + 1];
        if b_range.is_empty() || p_range.is_empty() {
            continue;
        }
        let keys = &bk[b_range.clone()];
        let pays = &bp[b_range];
        let table = PartitionTable::build(keys, cfg.bits);
        for &k in &pk[p_range] {
            for i in table.chain(k) {
                if keys[i] == k {
                    matches += 1;
                    sum = sum.wrapping_add(pays[i]);
                }
            }
        }
    }
    (matches, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_preserves_multiset() {
        let keys: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(37) % 517).collect();
        let pays: Vec<i64> = keys.iter().map(|&k| i64::from(k) * 2).collect();
        let (pk, pp, bounds) = radix_partition(&keys, &pays, RadixConfig::default());
        assert_eq!(pk.len(), keys.len());
        assert_eq!(*bounds.last().unwrap(), keys.len());
        let mut orig: Vec<(u32, i64)> = keys.iter().copied().zip(pays.iter().copied()).collect();
        let mut part: Vec<(u32, i64)> = pk.iter().copied().zip(pp.iter().copied()).collect();
        orig.sort_unstable();
        part.sort_unstable();
        assert_eq!(orig, part, "pairs stay aligned through partitioning");
    }

    #[test]
    fn partitions_are_coherent_single_pass() {
        check_coherence(RadixConfig { bits: 8, bits_per_pass: 8 });
    }

    #[test]
    fn partitions_are_coherent_multi_pass() {
        check_coherence(RadixConfig { bits: 8, bits_per_pass: 3 });
    }

    fn check_coherence(cfg: RadixConfig) {
        let keys: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(2246822519)).collect();
        let pays = vec![0i64; keys.len()];
        let (pk, _, bounds) = radix_partition(&keys, &pays, cfg);
        assert_eq!(bounds.len(), (1 << cfg.bits) + 1);
        for p in 0..(bounds.len() - 1) {
            for &k in &pk[bounds[p]..bounds[p + 1]] {
                assert_eq!(part_of(k, cfg.bits), p, "key {k} in wrong partition");
            }
        }
    }

    /// The keys of one partition share the low scramble bits that chose
    /// it; the bucket must come from other bits, or every key of the
    /// partition lands in one chain and each probe walks all of them.
    #[test]
    fn a_partitions_keys_spread_over_its_buckets() {
        let cfg = RadixConfig::default();
        for p in [0, 3, 1000] {
            let keys: Vec<u32> = (0..1u32 << 21).filter(|&k| part_of(k, cfg.bits) == p).collect();
            assert_eq!(keys.len(), 2048, "dense keys fill every partition alike");
            let table = PartitionTable::build(&keys, cfg.bits);
            let longest = keys.iter().map(|&k| table.chain(k).count()).max().unwrap();
            let used = table.heads.iter().filter(|&&h| h >= 0).count();
            assert!(longest <= 4, "partition {p}: a chain of {longest} keys");
            assert!(used * 2 >= keys.len(), "partition {p}: {used} buckets hold 2048 keys");
        }
    }

    #[test]
    fn join_matches_expected_pk_fk_semantics() {
        let build: Vec<u32> = (0..2048).collect();
        let pays: Vec<i64> = build.iter().map(|&k| i64::from(k)).collect();
        let probe: Vec<u32> = (0..10_000u32).map(|i| (i * 13) % 2048).collect();
        let (m, s) = pro_join_sum(&build, &pays, &probe, RadixConfig::default());
        assert_eq!(m, 10_000);
        let expected: i64 = probe.iter().map(|&k| i64::from(k)).sum();
        assert_eq!(s, expected);
    }

    #[test]
    fn single_pass_and_multi_pass_agree() {
        let build: Vec<u32> = (0..600u32).map(|i| i * 3 % 601).collect();
        let pays: Vec<i64> = build.iter().map(|&k| i64::from(k) + 7).collect();
        let probe: Vec<u32> = (0..3000u32).map(|i| i % 700).collect();
        let one = pro_join_sum(&build, &pays, &probe, RadixConfig { bits: 6, bits_per_pass: 6 });
        let two = pro_join_sum(&build, &pays, &probe, RadixConfig { bits: 6, bits_per_pass: 2 });
        assert_eq!(one, two);
    }

    #[test]
    fn duplicate_build_keys_multiply_matches() {
        let (m, s) = pro_join_sum(&[4, 4], &[1, 2], &[4, 4], RadixConfig::default());
        assert_eq!(m, 4);
        assert_eq!(s, 6);
    }

    #[test]
    fn misses_do_not_match() {
        let (m, s) = pro_join_sum(&[1, 2, 3], &[1, 2, 3], &[7, 8, 9], RadixConfig::default());
        assert_eq!((m, s), (0, 0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(pro_join_sum(&[], &[], &[1], RadixConfig::default()), (0, 0));
        assert_eq!(pro_join_sum(&[1], &[1], &[], RadixConfig::default()), (0, 0));
    }
}
