//! NeurSC configuration: architecture hyperparameters (paper §6.1),
//! training settings (Algorithm 3) and ablation variants (§6.2).

use neursc_gnn::{AttentionConfig, FeatureConfig, GinConfig};
use neursc_match::FilterConfig;

/// Which distance the discriminator minimizes between corresponding
/// query/data vertex representations (Fig. 12 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscriminatorMetric {
    /// Wasserstein-1 via a clamped critic (the paper's choice, §5.5).
    Wasserstein,
    /// Squared Euclidean distance between paired representations.
    Euclidean,
    /// KL divergence between softmax-normalized representations.
    KullbackLeibler,
    /// Jensen–Shannon divergence between softmax-normalized representations.
    JensenShannon,
}

/// Model variants evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full NeurSC: dual GNNs + Wasserstein discriminator.
    Full,
    /// `NeurSC-D`: dual GNNs, no discriminator.
    DualOnly,
    /// `NeurSC-I`: intra-graph GNN only.
    IntraOnly,
    /// `NeurSC w/o SE`: no substructure extraction — the intra-GNN runs on
    /// the query and the *entire* data graph (Fig. 11).
    NoExtraction,
}

/// Worker threads of the estimation pipeline's one level of parallelism:
/// the fan-out over the queries of a batch and over the substructures of a
/// query ([`crate::parallel`]). The tensor kernels below it run on the
/// thread that calls them.
///
/// Parallelism never changes results: with a fixed seed, estimates are
/// bit-identical at any `threads` value (work is reduced in index order —
/// see DESIGN.md "Concurrency & caching architecture").
///
/// ```
/// use neursc_core::{NeurScConfig, Parallelism};
/// let mut cfg = NeurScConfig::small();
/// cfg.parallelism = Parallelism::with_threads(4);
/// assert_eq!(cfg.parallelism.threads, 4);
/// assert_eq!(Parallelism::default().threads, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads for query-batch and per-substructure fan-out.
    /// 1 = fully sequential.
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { threads: 1 }
    }
}

impl Parallelism {
    /// A given thread count, at least 1.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
        }
    }
}

/// Resource budgets for the estimation pipeline (DESIGN.md, "Failure
/// semantics"). These are *runtime* knobs of the serving process, not part
/// of the learned model, so they are deliberately **not** persisted in
/// model files — a loaded model gets the defaults.
///
/// A blown step budget surfaces as the typed
/// [`NeurScError::Budget`](crate::NeurScError) (CLI exit code 1) rather
/// than a panic, and bumps the `query.error.budget` counter when a sink is
/// attached ([`crate::GraphContext::with_obs`]).
///
/// ```
/// use neursc_core::ResourceBudget;
/// let b = ResourceBudget {
///     max_filter_steps: Some(10_000),
///     ..ResourceBudget::default()
/// };
/// assert_eq!(b.max_query_vertices, Some(512)); // default cap survives
/// assert!(ResourceBudget::UNLIMITED.max_filter_steps.is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Reject queries with more vertices than this before any work is done
    /// (`None` = unlimited). Real workloads use ≤ 32-vertex queries
    /// (Table 3); the default cap of 512 stops adversarial inputs from
    /// monopolizing a worker.
    pub max_query_vertices: Option<usize>,
    /// Deterministic cap on candidate-pair tests during filtering
    /// (`None` = unlimited). See [`neursc_match::FilterBudget`] for the
    /// degradation ladder.
    pub max_filter_steps: Option<u64>,
    /// Wall-clock cutoff for filtering, per query (`None` = disabled).
    /// Unlike step budgets this is nondeterministic — off by default.
    pub wall_clock_ms: Option<u64>,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_query_vertices: Some(512),
            max_filter_steps: None,
            wall_clock_ms: None,
        }
    }
}

impl ResourceBudget {
    /// No limits at all.
    pub const UNLIMITED: ResourceBudget = ResourceBudget {
        max_query_vertices: None,
        max_filter_steps: None,
        wall_clock_ms: None,
    };

    /// Materializes the filtering budget, anchoring the wall-clock deadline
    /// (if any) at the moment of the call.
    pub fn filter_budget(&self) -> neursc_match::FilterBudget {
        let mut b = match self.max_filter_steps {
            Some(s) => neursc_match::FilterBudget::steps(s),
            None => neursc_match::FilterBudget::UNBOUNDED,
        };
        if let Some(ms) = self.wall_clock_ms {
            b = b.with_deadline(std::time::Instant::now() + std::time::Duration::from_millis(ms));
        }
        b
    }
}

/// Full configuration of a [`crate::NeurSc`] model.
#[derive(Debug, Clone)]
pub struct NeurScConfig {
    /// Feature-initialization settings (Eq. 1; `dim_0 = 64` in the paper).
    pub features: FeatureConfig,
    /// Intra-graph GIN settings (2 layers, `dim_K = 128` in the paper).
    pub gin: GinConfig,
    /// Inter-graph attention settings (2 layers, `dim_{K'} = 128`).
    pub attention: AttentionConfig,
    /// Hidden width of the 4-layer prediction MLP.
    pub head_hidden: usize,
    /// Hidden width of the 3-layer discriminator MLP.
    pub disc_hidden: usize,
    /// Candidate-filtering settings (§4(1)).
    pub filter: FilterConfig,
    /// Variant under evaluation.
    pub variant: Variant,
    /// Discriminator distance metric.
    pub metric: DiscriminatorMetric,
    /// Loss balance β ∈ (0, 1) in Eq. 11 (paper tunes in [0.5, 0.99]).
    pub beta: f32,
    /// Learning rate for the estimation network (paper: 1e-3).
    pub lr_est: f32,
    /// Learning rate for the discriminator (paper: 1e-3).
    pub lr_disc: f32,
    /// Batch size (paper: 20).
    pub batch_size: usize,
    /// Discriminator iterations per input pair (paper: 1).
    pub iter_disc: usize,
    /// Pre-training epochs with the count loss only (§5.6's warm-up that
    /// avoids the all-equal-representations degenerate case).
    pub pretrain_epochs: usize,
    /// Adversarial fine-tuning epochs (Algorithm 3).
    pub adversarial_epochs: usize,
    /// Weight-clamp box for the critic (paper: 0.01).
    pub clamp: f32,
    /// Substructure sample rate `r_s ∈ (0, 1]` at *query* time (§5.8);
    /// 1.0 = use all substructures.
    pub sample_rate: f64,
    /// Whether correspondence pairs are restricted to candidate sets
    /// (§5.5, the paper's improvement) or chosen unconstrained as in
    /// Gao et al. \[21\] (`false` — the `NeurSC-UNC` ablation).
    pub candidate_guided_correspondence: bool,
    /// Whether to add random query–data edges linking `G_B`'s connected
    /// components (§5.3; `false` is the ablation of DESIGN.md §5 —
    /// attention messages then stay within components).
    pub gb_connect_components: bool,
    /// Cap on candidate-substructure size (vertices) fed to the GNNs; the
    /// largest substructures are truncated to their highest-degree
    /// candidate vertices. `None` = no cap. This guards the CPU-only
    /// substitution substrate; the paper's GPU runs uncapped.
    pub max_substructure_vertices: Option<usize>,
    /// RNG seed for weight init, batching and `G_B` connector edges.
    pub seed: u64,
    /// Estimation-pipeline parallelism (bit-deterministic at any setting).
    pub parallelism: Parallelism,
    /// Per-query resource budgets (runtime knob, not persisted).
    pub budget: ResourceBudget,
    /// Global-norm gradient clip for the estimation network (`None` =
    /// unclipped). A divergence guard, not a tuning knob: ordinary training
    /// gradients sit far below the default cap.
    pub grad_clip: Option<f32>,
    /// Whether [`crate::NeurSc::fit`] returns a `Divergence` error when a
    /// non-finite epoch loss forces a rollback, instead of reporting the
    /// rollback in the [`crate::train::TrainReport`] (the default).
    pub fail_on_divergence: bool,
}

impl Default for NeurScConfig {
    /// The paper's §6.1 settings.
    fn default() -> Self {
        let features = FeatureConfig::default(); // dim_0 = 64
        NeurScConfig {
            features,
            gin: GinConfig {
                in_dim: features.dim(),
                hidden_dim: 128,
                n_layers: 2,
            },
            attention: AttentionConfig {
                in_dim: features.dim(),
                hidden_dim: 128,
                n_layers: 2,
                self_term: false,
            },
            head_hidden: 128,
            disc_hidden: 64,
            filter: FilterConfig::default(),
            variant: Variant::Full,
            metric: DiscriminatorMetric::Wasserstein,
            beta: 0.7,
            lr_est: 1e-3,
            lr_disc: 1e-3,
            batch_size: 20,
            iter_disc: 1,
            pretrain_epochs: 20,
            adversarial_epochs: 10,
            clamp: 0.01,
            sample_rate: 1.0,
            candidate_guided_correspondence: true,
            gb_connect_components: true,
            max_substructure_vertices: Some(4096),
            seed: 0,
            parallelism: Parallelism::default(),
            budget: ResourceBudget::default(),
            grad_clip: Some(100.0),
            fail_on_divergence: false,
        }
    }
}

impl NeurScConfig {
    /// A small, fast configuration used by tests, examples and the
    /// CPU-bound benchmark harnesses (hidden dim 32, few epochs). Same
    /// architecture, smaller widths — see DESIGN.md §3.
    pub fn small() -> Self {
        let features = FeatureConfig {
            degree_bits: 8,
            label_bits: 8,
            k_hops: 1,
        };
        NeurScConfig {
            features,
            gin: GinConfig {
                in_dim: features.dim(),
                hidden_dim: 32,
                n_layers: 2,
            },
            attention: AttentionConfig {
                in_dim: features.dim(),
                hidden_dim: 32,
                n_layers: 2,
                self_term: false,
            },
            head_hidden: 64,
            disc_hidden: 32,
            pretrain_epochs: 25,
            adversarial_epochs: 8,
            max_substructure_vertices: Some(1024),
            ..NeurScConfig::default()
        }
    }

    /// Applies a variant preset.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the discriminator metric (Fig. 12 ablation).
    pub fn with_metric(mut self, m: DiscriminatorMetric) -> Self {
        self.metric = m;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pipeline thread count (estimates stay bit-identical).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.parallelism.threads = threads.max(1);
        self
    }

    /// Combined per-vertex representation width `dim_K + dim_{K'}` (or just
    /// `dim_K` for the intra-only variant).
    pub fn rep_dim(&self) -> usize {
        match self.variant {
            Variant::IntraOnly | Variant::NoExtraction => self.gin.hidden_dim,
            _ => self.gin.hidden_dim + self.attention.hidden_dim,
        }
    }

    /// Whether the variant uses the inter-graph attentive network.
    pub fn uses_inter(&self) -> bool {
        matches!(self.variant, Variant::Full | Variant::DualOnly)
    }

    /// Whether the variant trains the discriminator.
    pub fn uses_discriminator(&self) -> bool {
        matches!(self.variant, Variant::Full)
    }

    /// Whether the variant extracts substructures.
    pub fn uses_extraction(&self) -> bool {
        !matches!(self.variant, Variant::NoExtraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = NeurScConfig::default();
        assert_eq!(c.features.dim(), 64);
        assert_eq!(c.gin.hidden_dim, 128);
        assert_eq!(c.gin.n_layers, 2);
        assert_eq!(c.attention.n_layers, 2);
        assert_eq!(c.batch_size, 20);
        assert_eq!(c.iter_disc, 1);
        assert!((c.lr_est - 1e-3).abs() < 1e-12);
        assert!((c.clamp - 0.01).abs() < 1e-12);
        assert!(c.beta > 0.5 && c.beta < 0.99);
    }

    #[test]
    fn variant_flags() {
        let full = NeurScConfig::default();
        assert!(full.uses_inter() && full.uses_discriminator() && full.uses_extraction());
        let d = full.clone().with_variant(Variant::DualOnly);
        assert!(d.uses_inter() && !d.uses_discriminator());
        let i = d.clone().with_variant(Variant::IntraOnly);
        assert!(!i.uses_inter());
        assert_eq!(i.rep_dim(), i.gin.hidden_dim);
        let nse = i.with_variant(Variant::NoExtraction);
        assert!(!nse.uses_extraction());
    }

    #[test]
    fn rep_dim_concatenates_for_dual() {
        let c = NeurScConfig::default();
        assert_eq!(c.rep_dim(), 256);
    }

    #[test]
    fn default_budget_caps_query_size_only() {
        let b = ResourceBudget::default();
        assert_eq!(b.max_query_vertices, Some(512));
        assert_eq!(b.max_filter_steps, None);
        assert_eq!(b.wall_clock_ms, None);
        assert_eq!(
            b.filter_budget(),
            neursc_match::FilterBudget::UNBOUNDED,
            "no step/clock limit set"
        );
    }

    #[test]
    fn filter_budget_materializes_step_cap() {
        let b = ResourceBudget {
            max_filter_steps: Some(7),
            ..ResourceBudget::UNLIMITED
        };
        assert_eq!(b.filter_budget(), neursc_match::FilterBudget::steps(7));
    }

    #[test]
    fn small_is_consistent() {
        let c = NeurScConfig::small();
        assert_eq!(c.gin.in_dim, c.features.dim());
        assert_eq!(c.attention.in_dim, c.features.dim());
    }
}
