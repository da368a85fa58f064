//! Shared per-data-graph computation caches.
//!
//! A [`GraphContext`] bundles the two caches of expensive graph-wide
//! precomputations the pipeline repeats across a query batch:
//!
//! * [`neursc_match::ProfileCache`] — `all_profiles(G, r)` used by local
//!   pruning (the `O(|G|)` part of candidate filtering: every vertex's
//!   profile plus the per-label buckets the admission scan walks);
//! * [`neursc_gnn::FeatureCache`] — `init_features(G)` used when a variant
//!   featurizes the whole data graph (`NeurSC w/o SE`).
//!
//! Both key by graph content fingerprint, so a rebuilt graph can never see
//! stale entries, and both are unbounded memos: a context is meant for one
//! data graph (a batch, a training run, a daemon), so each holds one entry
//! per radius or feature configuration in use. The context is `Sync`; the
//! batched entry points ([`crate::Estimator::estimate_batch`],
//! [`crate::NeurSc::fit`]) share one across their worker threads.
//!
//! It also carries the two cross-cutting plumbing handles of the pipeline:
//! a [`FaultPlan`] (deterministic fault injection, PR 2) and an
//! [`ObsSink`] (structured tracing + metrics, see [`crate::obs`]) — both
//! inert by default.

use crate::faults::FaultPlan;
use crate::obs::{self, ObsSink};
use neursc_gnn::{FeatureCache, FeatureConfig};
use neursc_graph::Graph;
use neursc_match::profile::Profiles;
use neursc_match::ProfileCache;
use neursc_nn::Tensor;
use std::sync::Arc;

/// Shared caches for estimation/training against a data graph.
#[derive(Debug)]
pub struct GraphContext {
    /// Data-graph vertex-profile cache (local pruning).
    pub profiles: ProfileCache,
    /// Data-graph feature-matrix cache (whole-graph featurization).
    pub features: FeatureCache,
    /// Fault-injection plan consulted by the batched entry points (empty by
    /// default — see [`crate::faults`]).
    pub faults: FaultPlan,
    /// Observability sink spans and metrics are delivered to (no-op by
    /// default — see [`crate::obs`]).
    pub obs: Arc<dyn ObsSink>,
}

impl Default for GraphContext {
    fn default() -> Self {
        GraphContext {
            profiles: ProfileCache::new(),
            features: FeatureCache::new(),
            faults: FaultPlan::default(),
            obs: Arc::clone(obs::noop()),
        }
    }
}

impl GraphContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context carrying a fault-injection plan.
    pub fn with_faults(faults: FaultPlan) -> Self {
        GraphContext {
            faults,
            ..Self::default()
        }
    }

    /// A context delivering spans and metrics to `sink` (typically an
    /// [`crate::obs::Recorder`]).
    ///
    /// ```
    /// use neursc_core::{obs::Recorder, GraphContext};
    /// use std::sync::Arc;
    ///
    /// let rec = Arc::new(Recorder::new());
    /// let ctx = GraphContext::with_obs(rec.clone());
    /// assert!(ctx.obs.enabled());
    /// ```
    pub fn with_obs(sink: Arc<dyn ObsSink>) -> Self {
        GraphContext {
            obs: sink,
            ..Self::default()
        }
    }

    /// The radius-`r` profiles of `g` from the cache, with hit/miss
    /// counters (`cache.profile.hit`/`.miss`) and, on a miss, a
    /// `filter.profile_build` span delivered to the sink.
    pub fn profiles_for(&self, g: &Graph, r: u32) -> (Arc<Profiles>, bool) {
        let (profiles, hit, build_ns) = self
            .profiles
            .get_or_build(g, &r, || neursc_match::profile::all_profiles(g, r));
        if hit {
            self.obs.counter_add("cache.profile.hit", 1);
        } else {
            self.obs.counter_add("cache.profile.miss", 1);
            self.obs.observe("filter.profile_build.ns", build_ns);
            obs::span_with_ns("filter.profile_build", build_ns);
        }
        (profiles, hit)
    }

    /// The Eq. 1 feature matrix of `g` from the cache, with hit/miss
    /// counters (`cache.feature.hit`/`.miss`) delivered to the sink.
    pub fn features_for(&self, g: &Graph, cfg: &FeatureConfig) -> (Arc<Tensor>, bool) {
        let (features, hit, build_ns) = self
            .features
            .get_or_build(g, cfg, || neursc_gnn::init_features(g, cfg));
        if hit {
            self.obs.counter_add("cache.feature.hit", 1);
        } else {
            self.obs.counter_add("cache.feature.miss", 1);
            self.obs.observe("gnn.feature_build.ns", build_ns);
        }
        (features, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Recorder;
    use neursc_graph::generate::erdos_renyi;

    #[test]
    fn context_reports_hits_and_misses_to_the_sink() {
        let rec = Arc::new(Recorder::new());
        let ctx = GraphContext::with_obs(rec.clone());
        let g1 = erdos_renyi(20, 40, 2, 1);
        let g2 = erdos_renyi(20, 40, 2, 2);
        let _ = ctx.profiles_for(&g1, 1);
        let _ = ctx.profiles_for(&g2, 1);
        let _ = ctx.profiles_for(&g1, 1);
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counter("cache.profile.miss"), 2);
        assert_eq!(snap.counter("cache.profile.hit"), 1);
        assert_eq!(ctx.profiles.len(), 2);
    }
}
