//! Property-based acceptance of the warm-state snapshot format:
//! encode → decode → install → re-encode is the identity (including LRU
//! order, capacity bounds and lifetime eviction counters), and every
//! corruption — truncation at any byte, any single bit flip, a snapshot
//! from a different graph or model — yields a *typed* cold-fallback
//! reason, never a wrong restore and never a panic.

use neursc_gnn::{FeatureCache, FeatureConfig};
use neursc_match::ProfileCache;
use neursc_nn::Tensor;
use neursc_serve::snapshot;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// One feature-cache entry: config fields, rows, cols, cell bits.
type FeatureEntry = ((usize, usize, u32), usize, usize, Vec<u32>);

/// Everything that parameterizes one synthetic warm world.
struct World {
    graph_fp: u64,
    model_sum: u64,
    created_ms: u64,
    profile_cap: Option<usize>,
    profile_evicted: u64,
    /// Per entry: radius, per-vertex label lists.
    profiles: Vec<(u32, Vec<Vec<u32>>)>,
    feature_cap: Option<usize>,
    feature_evicted: u64,
    features: Vec<FeatureEntry>,
}

fn arb_world() -> impl Strategy<Value = World> {
    let profile_entry = (0u32..4, vec(vec(any::<u32>(), 0..6), 0..5));
    let feature_entry = (0usize..6, 0usize..6, 0u32..4, 1usize..5, 1usize..5).prop_flat_map(
        |(db, lb, kh, rows, cols)| {
            (
                Just(((db, lb, kh), rows, cols)),
                vec(any::<u32>(), rows * cols),
            )
                .prop_map(|((cfg, rows, cols), bits)| (cfg, rows, cols, bits))
        },
    );
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        ((any::<bool>(), 1usize..6), 0u64..1_000_000),
        vec(profile_entry, 0..6),
        ((any::<bool>(), 1usize..6), 0u64..1_000_000),
        vec(feature_entry, 0..4),
    )
        .prop_map(
            |(
                (graph_fp, model_sum, created_ms),
                ((p_bounded, p_cap), profile_evicted),
                profiles,
                ((f_bounded, f_cap), feature_evicted),
                features,
            )| World {
                graph_fp,
                model_sum,
                created_ms,
                profile_cap: p_bounded.then_some(p_cap),
                profile_evicted,
                profiles,
                feature_cap: f_bounded.then_some(f_cap),
                feature_evicted,
                features,
            },
        )
}

/// Distinct per-entry fingerprint (odd multiplier ⇒ injective in the index).
fn fp_for(base: u64, i: usize) -> u64 {
    base.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn profile_cache(cap: Option<usize>) -> ProfileCache {
    match cap {
        Some(c) => ProfileCache::with_capacity(c),
        None => ProfileCache::new(),
    }
}

fn feature_cache(cap: Option<usize>) -> FeatureCache {
    match cap {
        Some(c) => FeatureCache::with_capacity(c),
        None => FeatureCache::new(),
    }
}

/// Builds live caches matching the world. A capacity smaller than the
/// entry count evicts during the build, exercising the LRU bound: the
/// snapshot then captures the survivors plus the bumped eviction counter.
fn build(w: &World) -> (ProfileCache, FeatureCache) {
    let profiles = profile_cache(w.profile_cap);
    profiles.restore_evicted_total(w.profile_evicted);
    for (i, (radius, per_vertex)) in w.profiles.iter().enumerate() {
        profiles.import(fp_for(w.graph_fp, i), *radius, Arc::new(per_vertex.clone()));
    }
    let features = feature_cache(w.feature_cap);
    features.restore_evicted_total(w.feature_evicted);
    for (i, ((db, lb, kh), rows, cols, bits)) in w.features.iter().enumerate() {
        let cfg = FeatureConfig {
            degree_bits: *db,
            label_bits: *lb,
            k_hops: *kh,
        };
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        features.import(
            fp_for(!w.graph_fp, i),
            cfg,
            Arc::new(Tensor::from_vec(*rows, *cols, data)),
        );
    }
    (profiles, features)
}

fn encode_world(w: &World) -> Vec<u8> {
    let (profiles, features) = build(w);
    snapshot::encode(&profiles, &features, w.graph_fp, w.model_sum, w.created_ms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode → install into fresh caches → encode again is
    /// byte-identical, and the decoded header fields (capacities,
    /// eviction counters, creation time) survive exactly.
    #[test]
    fn roundtrip_is_identity(w in arb_world()) {
        let (profiles, features) = build(&w);
        let bytes = snapshot::encode(&profiles, &features, w.graph_fp, w.model_sum, w.created_ms);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode of fresh snapshot failed: {e}"))),
        };
        prop_assert!(snap.verify(w.graph_fp, w.model_sum).is_ok());
        prop_assert_eq!(snap.created_unix_ms, w.created_ms);
        prop_assert_eq!(snap.profile_capacity, w.profile_cap);
        prop_assert_eq!(snap.feature_capacity, w.feature_cap);
        prop_assert_eq!(snap.profile_evicted, profiles.evicted_total());
        prop_assert_eq!(snap.feature_evicted, features.evicted_total());
        // The LRU bound held: never more live entries than capacity, and
        // every overflow is accounted for in the eviction counter.
        if let Some(cap) = w.profile_cap {
            prop_assert!(snap.profile_entries.len() <= cap);
            let overflow = w.profiles.len().saturating_sub(cap) as u64;
            prop_assert_eq!(snap.profile_evicted, w.profile_evicted + overflow);
        } else {
            prop_assert_eq!(snap.profile_entries.len(), w.profiles.len());
        }
        if let Some(cap) = w.feature_cap {
            prop_assert!(snap.feature_entries.len() <= cap);
        } else {
            prop_assert_eq!(snap.feature_entries.len(), w.features.len());
        }

        let p2 = profile_cache(snap.profile_capacity);
        let f2 = feature_cache(snap.feature_capacity);
        snap.install(&p2, &f2);
        prop_assert_eq!(p2.evicted_total(), snap.profile_evicted);
        prop_assert_eq!(f2.evicted_total(), snap.feature_evicted);
        let again = snapshot::encode(&p2, &f2, w.graph_fp, w.model_sum, w.created_ms);
        prop_assert!(bytes == again, "restore then re-snapshot is not byte-identical");
    }

    /// Restoring into a cache with a *smaller* bound must not panic or
    /// overfill: the LRU bound evicts as usual during install.
    #[test]
    fn restore_into_smaller_cache_respects_the_bound(w in arb_world()) {
        let bytes = encode_world(&w);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode failed: {e}"))),
        };
        let p2 = ProfileCache::with_capacity(1);
        let f2 = FeatureCache::with_capacity(1);
        snap.install(&p2, &f2);
        prop_assert!(p2.len() <= 1);
        prop_assert!(f2.len() <= 1);
    }

    /// Truncation at any byte is a typed corruption → cold rebuild.
    #[test]
    fn truncation_at_any_byte_degrades_to_cold(w in arb_world(), frac in 0.0f64..1.0) {
        let bytes = encode_world(&w);
        let cut = ((bytes.len() as f64) * frac) as usize;
        let cut = cut.min(bytes.len() - 1);
        let e = match snapshot::decode(&bytes[..cut]) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError(format!("accepted snapshot truncated to {cut} bytes"))),
        };
        prop_assert_eq!(e.outcome(), "cold_corrupt", "cut at {}: {}", cut, e);
    }

    /// Any single bit flip — header, checksum or body — is caught and
    /// typed. (A flip in magic/version reads as a format error, anything
    /// after fails the checksum; all degrade to `cold_corrupt`.)
    #[test]
    fn any_single_bitflip_degrades_to_cold(w in arb_world(), pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode_world(&w);
        let i = (((bytes.len() - 1) as f64) * pos) as usize;
        bytes[i] ^= 1 << bit;
        let e = match snapshot::decode(&bytes) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError(format!("accepted snapshot with bit {bit} of byte {i} flipped"))),
        };
        prop_assert_eq!(e.outcome(), "cold_corrupt", "byte {} bit {}: {}", i, bit, e);
    }

    /// A structurally valid snapshot for a different graph or model is a
    /// typed mismatch — restored caches would be silently wrong.
    #[test]
    fn wrong_world_degrades_to_cold_mismatch(w in arb_world(), delta in 1u64..=u64::MAX) {
        let bytes = encode_world(&w);
        let snap = match snapshot::decode(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError(format!("decode failed: {e}"))),
        };
        let e = match snap.verify(w.graph_fp ^ delta, w.model_sum) {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError("accepted snapshot for a different graph".into())),
        };
        prop_assert_eq!(e.outcome(), "cold_mismatch", "{}", e);
        let e = match snap.verify(w.graph_fp, w.model_sum ^ delta) {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError("accepted snapshot for a different model".into())),
        };
        prop_assert_eq!(e.outcome(), "cold_mismatch", "{}", e);
    }
}
