//! The shard cache's hit, miss and eviction counters. They live in the
//! process-global metrics registry, so this test has a binary of its
//! own: no other test in the process touches a cache while it reads
//! exact counter deltas.

use dasc_store::format::encode_shard;
use dasc_store::{ShardCache, ShardMeta};

fn shard_bytes(index: u32, rows: usize, dim: usize, fill: f64) -> (Vec<u8>, ShardMeta) {
    let pts: Vec<f64> = (0..rows * dim).map(|i| fill + i as f64).collect();
    encode_shard(index, dim as u64, &pts, None)
}

#[test]
fn hit_miss_eviction_lifecycle_with_counters() {
    let reg = dasc_obs::global();
    let hits0 = reg.counter_value("dasc_store_shard_cache_hits_total");
    let miss0 = reg.counter_value("dasc_store_shard_cache_misses_total");
    let evict0 = reg.counter_value("dasc_store_shard_cache_evictions_total");

    let (b0, m0) = shard_bytes(0, 8, 4, 0.0);
    let (b1, m1) = shard_bytes(1, 8, 4, 100.0);
    // Capacity fits exactly one shard's resident cost.
    let cache = ShardCache::new(m0.byte_len as usize + 64);

    // Miss, then hit.
    let s = cache
        .get_or_fetch(7, 0, 4, false, &m0, || Ok(b0.clone()))
        .expect("first fetch");
    assert_eq!(s.rows(), 8);
    cache
        .get_or_fetch(7, 0, 4, false, &m0, || panic!("must be cached"))
        .expect("hit");

    // A second shard displaces the first.
    cache
        .get_or_fetch(7, 1, 4, false, &m1, || Ok(b1.clone()))
        .expect("second fetch");
    assert!(cache.resident_bytes() <= cache.capacity_bytes());
    cache
        .get_or_fetch(7, 0, 4, false, &m0, || Ok(b0.clone()))
        .expect("refetch after eviction");

    assert_eq!(
        reg.counter_value("dasc_store_shard_cache_hits_total") - hits0,
        1
    );
    assert_eq!(
        reg.counter_value("dasc_store_shard_cache_misses_total") - miss0,
        3
    );
    assert!(reg.counter_value("dasc_store_shard_cache_evictions_total") - evict0 >= 2);
}
