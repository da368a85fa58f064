//! Cost-based backend routing: which estimator answers a request.
//!
//! The daemon can serve estimates from two backends with very different
//! cost profiles:
//!
//! * **`west`** — the trained WEst GNN ([`neursc_core::NeurSc`]): runs
//!   extraction + two GNN passes per query. Accurate after training, but
//!   the per-query cost grows with the candidate space it must embed.
//! * **`sample`** — the filtering–sampling estimator
//!   ([`neursc_sample::SampleEstimator`]): shares the exact same
//!   candidate filtering, then pays a fixed number of cheap
//!   Horvitz–Thompson trials. Unbiased with a confidence interval, no
//!   training required, and its cost is insensitive to candidate-space
//!   volume once filtering is done.
//!
//! `--backend auto` picks per request from a deliberately simple cost
//! model (see [`route`]): route to sampling when the query's
//! *candidate-space volume* — the sum of data-graph label frequencies
//! over the query's vertex labels, an upper bound on the candidate sets
//! the GNN path would embed — exceeds [`RouterConfig::volume_cap`], or
//! when the request's **declared** `deadline_ms` could not cover that
//! volume at [`RouterConfig::cands_per_ms`]. Both inputs are functions of
//! the request alone (never of wall-clock elapsed time or queue state),
//! so routing is deterministic: the same request routes the same way in
//! a replay, at any thread count, served or offline.
//!
//! Every decision increments `router.backend.west` or
//! `router.backend.sample`, exported by the `stats` verb.

use neursc_core::NeurScConfig;
use neursc_graph::Graph;
use neursc_sample::{SampleConfig, SampleEstimator};

/// Which backend the daemon uses, from `--backend west|sample|auto`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Always the WEst GNN (the default; identical to every prior
    /// release).
    West,
    /// Always the filtering–sampling estimator.
    Sample,
    /// Per-request cost-based choice — see [`route`].
    Auto,
}

impl BackendChoice {
    /// Parses the `--backend` flag value.
    ///
    /// ```
    /// use neursc_serve::router::BackendChoice;
    /// assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
    /// assert_eq!(BackendChoice::parse("fastest"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "west" => Some(BackendChoice::West),
            "sample" => Some(BackendChoice::Sample),
            "auto" => Some(BackendChoice::Auto),
            _ => None,
        }
    }

    /// The flag spelling (`west`, `sample`, `auto`).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::West => "west",
            BackendChoice::Sample => "sample",
            BackendChoice::Auto => "auto",
        }
    }
}

/// The backend a specific request was routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// Run on the WEst GNN.
    West,
    /// Run on the sampling estimator.
    Sample,
}

/// Thresholds of the `auto` cost model. The defaults suit the bundled
/// synthetic workloads; tests set extreme values to force either verdict.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Candidate-space volume above which `auto` prefers sampling even
    /// with no deadline declared.
    pub volume_cap: u64,
    /// Assumed GNN throughput, candidates per declared-deadline
    /// millisecond: a request with `deadline_ms` routes to sampling when
    /// `volume > deadline_ms * cands_per_ms`.
    pub cands_per_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            volume_cap: 250_000,
            cands_per_ms: 100,
        }
    }
}

/// Upper bound on the candidate space the GNN path would embed for `q`
/// on `g`: the sum of `g`'s label frequencies over `q`'s vertex labels
/// (what local pruning starts from, before degree/profile filtering).
pub fn candidate_volume(q: &Graph, g: &Graph) -> u64 {
    let freq = g.label_frequencies();
    q.vertices()
        .map(|u| {
            let l = q.label(u) as usize;
            freq.get(l).copied().unwrap_or(0) as u64
        })
        .sum()
}

/// Routes one request. Deterministic in the request alone: the inputs are
/// the query's shape, the resident graph's label histogram, and the
/// request's *declared* deadline — never elapsed wall-clock or queue
/// depth, so served and offline replays of the same request agree.
pub fn route(
    choice: BackendChoice,
    cfg: &RouterConfig,
    q: &Graph,
    g: &Graph,
    deadline_ms: Option<u64>,
) -> Routed {
    match choice {
        BackendChoice::West => Routed::West,
        BackendChoice::Sample => Routed::Sample,
        BackendChoice::Auto => {
            let volume = candidate_volume(q, g);
            if volume > cfg.volume_cap {
                return Routed::Sample;
            }
            if let Some(ms) = deadline_ms {
                if volume > ms.saturating_mul(cfg.cands_per_ms) {
                    return Routed::Sample;
                }
            }
            Routed::West
        }
    }
}

/// Builds the daemon's sampling backend from the resident model's
/// configuration, so both backends share filter settings, budgets,
/// thread count and seed (and therefore agree on candidate sets,
/// `trivially_zero` verdicts and budget semantics).
pub fn sampler_for_model(cfg: &NeurScConfig) -> SampleEstimator {
    SampleEstimator::new(SampleConfig::from_model_config(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphs() -> (Graph, Graph) {
        // Data graph: 6 vertices, labels [0,0,0,1,1,2].
        let g = Graph::from_edges(
            6,
            &[0, 0, 0, 1, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )
        .unwrap();
        let q = Graph::from_edges(2, &[0, 1], &[(0, 1)]).unwrap();
        (q, g)
    }

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for c in [
            BackendChoice::West,
            BackendChoice::Sample,
            BackendChoice::Auto,
        ] {
            assert_eq!(BackendChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(BackendChoice::parse("WEST"), None);
        assert_eq!(BackendChoice::parse(""), None);
    }

    #[test]
    fn volume_sums_label_frequencies_over_query_vertices() {
        let (q, g) = graphs();
        // label 0 appears 3×, label 1 appears 2× → 5.
        assert_eq!(candidate_volume(&q, &g), 5);
        let q2 = Graph::from_edges(2, &[2, 9], &[(0, 1)]).unwrap();
        // label 2 appears once; label 9 is absent from g → 1.
        assert_eq!(candidate_volume(&q2, &g), 1);
    }

    #[test]
    fn forced_choices_ignore_the_cost_model() {
        let (q, g) = graphs();
        let cfg = RouterConfig {
            volume_cap: 0,
            cands_per_ms: 0,
        };
        assert_eq!(
            route(BackendChoice::West, &cfg, &q, &g, Some(1)),
            Routed::West
        );
        let cfg = RouterConfig::default();
        assert_eq!(
            route(BackendChoice::Sample, &cfg, &q, &g, None),
            Routed::Sample
        );
    }

    #[test]
    fn auto_routes_by_volume_cap_and_declared_deadline() {
        let (q, g) = graphs();
        // Volume 5 under the default cap, no deadline → west.
        assert_eq!(
            route(BackendChoice::Auto, &RouterConfig::default(), &q, &g, None),
            Routed::West
        );
        // volume_cap 0 → everything samples.
        let tight = RouterConfig {
            volume_cap: 0,
            cands_per_ms: 100,
        };
        assert_eq!(
            route(BackendChoice::Auto, &tight, &q, &g, None),
            Routed::Sample
        );
        // Declared deadline too short for the volume → sample; a longer
        // one → west. Deterministic in the declaration, not wall clock.
        let cfg = RouterConfig {
            volume_cap: 1_000,
            cands_per_ms: 1,
        };
        assert_eq!(
            route(BackendChoice::Auto, &cfg, &q, &g, Some(4)),
            Routed::Sample
        );
        assert_eq!(
            route(BackendChoice::Auto, &cfg, &q, &g, Some(5)),
            Routed::West
        );
    }
}
