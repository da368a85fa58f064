//! Training of WEst (paper §5.6, Algorithm 3).
//!
//! Two phases, as prescribed at the end of §5.6 to avoid the degenerate
//! all-representations-equal optimum of Eq. 9:
//!
//! 1. **Pre-training** — the estimation network alone on the count loss
//!    (Eq. 10) for `pretrain_epochs`.
//! 2. **Adversarial fine-tuning** (Algorithm 3) — per query: forward all
//!    substructures, update the critic `ω` for `iter_ω` iterations on the
//!    detached representations (maximize `L_w`, clamp weights), then
//!    accumulate the joint loss for `θ` over the batch and step.
//!
//! **Sign note.** Eq. 11 writes the joint loss as `(1−β)L_c − β·L̄_w`; since
//! `θ` produces *both* sides of `L_w`, and §5.5's stated goal is to
//! *minimize* the Wasserstein distance between corresponding
//! representations, the `θ` step here minimizes `(1−β)L_c + β·L̄_w` (the
//! critic still maximizes `L_w`). This is the standard WGAN orientation of
//! the two-player game; Eq. 11's sign reads as the critic's slot of the
//! unified objective.

use crate::bipartite::build_bipartite_edges;
use crate::config::{DiscriminatorMetric, NeurScConfig};
use crate::context::GraphContext;
use crate::discriminator::{
    select_correspondence, select_correspondence_unconstrained, wasserstein_loss,
};
use crate::distances::{metric_loss, select_nearest_pairs};
use crate::error::NeurScError;
use crate::loss::{count_loss, CountLossMode};
use crate::model::NeurSc;
use crate::obs::{ObsSink, PipelineReport, Span};
use crate::west::WestOutput;
use neursc_gnn::{init_features, EdgeList};
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use neursc_nn::optim::Adam;
use neursc_nn::{ParamId, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One substructure, featurized and ready for the GNNs.
#[derive(Debug, Clone)]
pub struct PreparedSub {
    /// Eq. 1 features of the substructure vertices.
    pub x: Tensor,
    /// Message edges of the substructure.
    pub edges: EdgeList,
    /// Bipartite `G_B` edges over combined query+substructure ids.
    pub gb: EdgeList,
    /// Component-local candidate sets per query vertex.
    pub local_cs: Vec<Vec<u32>>,
}

/// A query with all per-substructure inputs precomputed (extraction and
/// featurization are query-dependent but epoch-invariant, so they are done
/// once — this is also how the paper's implementation amortizes them).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Eq. 1 features of the query vertices.
    pub x_q: Tensor,
    /// Query message edges.
    pub q_edges: EdgeList,
    /// Prepared substructures (possibly empty).
    pub subs: Vec<PreparedSub>,
    /// Ground-truth count.
    pub truth: u64,
    /// Whether filtering alone proves the count is 0.
    pub trivially_zero: bool,
    /// Whether a filtering budget forced degraded (sound-but-looser)
    /// candidate sets — see [`crate::extraction::Extraction::degraded`].
    pub degraded: bool,
    /// Per-stage wall timings of preparation (wall-clock fields — never
    /// part of any determinism guarantee; see [`crate::obs`]).
    pub report: PipelineReport,
}

/// Rejects queries the pipeline must not attempt: empty graphs (no vertex
/// to featurize) and queries over the configured size cap.
pub fn validate_query(q: &Graph, cfg: &NeurScConfig) -> Result<(), NeurScError> {
    if q.n_vertices() == 0 {
        return Err(NeurScError::InvalidQuery {
            reason: "query has no vertices".into(),
        });
    }
    if let Some(cap) = cfg.budget.max_query_vertices {
        if q.n_vertices() > cap {
            return Err(NeurScError::Budget {
                detail: format!(
                    "query has {} vertices, max_query_vertices is {cap}",
                    q.n_vertices()
                ),
            });
        }
    }
    Ok(())
}

/// Featurizes one query against the data graph under `cfg`, with the
/// data-graph precomputations (vertex profiles, whole-graph features)
/// served from a shared [`GraphContext`] — paid once per data graph, not
/// once per query — and the filtering budget `cfg.budget` configures.
pub fn prepare_query_with(
    q: &Graph,
    g: &Graph,
    cfg: &NeurScConfig,
    truth: u64,
    ctx: &GraphContext,
) -> Result<PreparedQuery, NeurScError> {
    prepare_query_budgeted(q, g, cfg, truth, ctx, &cfg.budget.filter_budget())
}

/// The preparation stage: validation, extraction under an explicit
/// filtering budget (overriding `cfg.budget` — the hook for per-request
/// deadlines, per-item starvation faults and per-tenant budgets), then
/// featurization.
pub fn prepare_query_budgeted(
    q: &Graph,
    g: &Graph,
    cfg: &NeurScConfig,
    truth: u64,
    ctx: &GraphContext,
    budget: &FilterBudget,
) -> Result<PreparedQuery, NeurScError> {
    validate_query(q, cfg)?;
    if !cfg.uses_extraction() {
        // NeurSC w/o SE: the "substructure" is the entire data graph.
        let sub = PreparedSub {
            x: (*ctx.features_for(g, &cfg.features).0).clone(),
            edges: EdgeList::from_graph(g),
            gb: EdgeList::from_pairs(&[], q.n_vertices() + g.n_vertices()),
            local_cs: vec![Vec::new(); q.n_vertices()],
        };
        return Ok(PreparedQuery {
            x_q: init_features(q, &cfg.features),
            q_edges: EdgeList::from_graph(q),
            subs: vec![sub],
            truth,
            trivially_zero: false,
            degraded: false,
            report: PipelineReport::default(),
        });
    }
    // Extraction's component-split count arithmetic (skip rule,
    // `covers_all`) assumes every embedding lives inside one connected
    // substructure — true only for connected queries. Estimation entry
    // points split disconnected queries into components *before* preparing
    // (paper §6.1, `Estimator::estimate_routed`); reaching here with one is
    // a caller error, reported as a typed rejection rather than silently
    // producing an unsound preparation.
    let n_components = neursc_graph::induced::connected_components(q).len();
    if n_components > 1 {
        return Err(NeurScError::InvalidQuery {
            reason: format!(
                "query is disconnected ({n_components} components); estimate it via the \
                 component product (every `estimate*` entry point does this) — it cannot \
                 be prepared as a single extraction query"
            ),
        });
    }
    let ex = crate::extraction::extract_substructures_budgeted(q, g, cfg, ctx, budget)?;
    Ok(prepared_from_extraction(q, cfg, &ex, truth))
}

/// Featurizes an [`Extraction`] into a [`PreparedQuery`] — the tail of
/// query preparation above. The bipartite-edge RNG is (re)seeded here from
/// `cfg.seed`; extraction consumes no randomness.
pub(crate) fn prepared_from_extraction(
    q: &Graph,
    cfg: &NeurScConfig,
    ex: &crate::extraction::Extraction,
    truth: u64,
) -> PreparedQuery {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6e75_7263_7363_u64);
    let x_q = init_features(q, &cfg.features);
    let q_edges = EdgeList::from_graph(q);
    let mut report = ex.report.clone();
    let subs = {
        let _sp = Span::enter("extract.featurize");
        let t0 = std::time::Instant::now();
        let subs: Vec<PreparedSub> = ex
            .substructures
            .iter()
            .map(|s| PreparedSub {
                x: init_features(&s.graph, &cfg.features),
                edges: EdgeList::from_graph(&s.graph),
                gb: build_bipartite_edges(q, s, &mut rng),
                local_cs: s.local_cs.clone(),
            })
            .collect();
        report.featurize_ns = t0.elapsed().as_nanos() as u64;
        subs
    };
    PreparedQuery {
        x_q,
        q_edges,
        subs,
        truth,
        trivially_zero: ex.trivially_zero,
        degraded: ex.degraded,
        report,
    }
}

/// Forward pass over all substructures of a prepared query on one tape.
/// Returns per-substructure outputs and log-count vars (`None` when there
/// is nothing to run — the estimate is 0).
pub fn forward_prepared(
    model: &NeurSc,
    tape: &mut Tape,
    pq: &PreparedQuery,
) -> Option<(Vec<WestOutput>, Vec<Var>)> {
    if pq.trivially_zero || pq.subs.is_empty() {
        return None;
    }
    let mut outs = Vec::with_capacity(pq.subs.len());
    let mut zs = Vec::with_capacity(pq.subs.len());
    for sub in &pq.subs {
        let out = model.west.forward_pair(
            tape,
            &model.store,
            &pq.x_q,
            &pq.q_edges,
            &sub.x,
            &sub.edges,
            &sub.gb,
        );
        zs.push(out.log_count);
        outs.push(out);
    }
    Some((outs, zs))
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Pre-training epochs executed (may stop early on divergence).
    pub pretrain_epochs: usize,
    /// Adversarial epochs executed (may stop early on divergence).
    pub adversarial_epochs: usize,
    /// Queries excluded because extraction produced nothing to learn from.
    pub skipped_queries: usize,
    /// Queries that failed preparation with a typed error (panic, budget,
    /// invalid query) — counted by [`crate::NeurSc::fit`], always 0 when
    /// `run_training` is called directly.
    pub failed_queries: usize,
    /// Mean count loss (log-q-error) over the final *finite* epoch.
    pub final_loss: f64,
    /// Epoch (0-based, counting both phases) where a non-finite loss or
    /// parameter stopped training, if any.
    pub diverged_at: Option<usize>,
    /// Whether parameters were restored to the best finite checkpoint after
    /// divergence (always true when `diverged_at` is set — the initial
    /// weights are the fallback checkpoint).
    pub rolled_back: bool,
    /// Mean count loss of every executed epoch, both phases in order.
    pub epoch_losses: Vec<f64>,
}

/// Every field is bit-reproducible for fixed inputs; a NaN `final_loss`
/// (nothing trained) equals another NaN.
impl PartialEq for TrainReport {
    fn eq(&self, other: &Self) -> bool {
        self.pretrain_epochs == other.pretrain_epochs
            && self.adversarial_epochs == other.adversarial_epochs
            && self.skipped_queries == other.skipped_queries
            && self.failed_queries == other.failed_queries
            && (self.final_loss == other.final_loss
                || (self.final_loss.is_nan() && other.final_loss.is_nan()))
            && self.diverged_at == other.diverged_at
            && self.rolled_back == other.rolled_back
            && self.epoch_losses == other.epoch_losses
    }
}

/// Best-checkpoint snapshot + non-finite detection across epochs.
///
/// Seeded with the *initial* parameters at loss `+∞`, so even a run that
/// diverges in its very first epoch rolls back to finite weights.
struct DivergenceGuard {
    params: Vec<ParamId>,
    best_loss: f64,
    best_snapshot: Vec<Tensor>,
    diverged_at: Option<usize>,
    diverged_loss: f64,
    rolled_back: bool,
    epoch: usize,
}

impl DivergenceGuard {
    fn new(model: &NeurSc) -> Self {
        let params: Vec<ParamId> = model.store.ids().collect();
        let best_snapshot = params
            .iter()
            .map(|&p| model.store.value(p).clone())
            .collect();
        DivergenceGuard {
            params,
            best_loss: f64::INFINITY,
            best_snapshot,
            diverged_at: None,
            diverged_loss: f64::NAN,
            rolled_back: false,
            epoch: 0,
        }
    }

    fn params_non_finite(&self, model: &NeurSc) -> bool {
        self.params
            .iter()
            .any(|&p| model.store.value(p).has_non_finite())
    }

    /// Inspects one finished epoch; returns `true` when training must stop
    /// (parameters have already been rolled back to the best checkpoint).
    fn observe_epoch(&mut self, model: &mut NeurSc, epoch_loss: f64) -> bool {
        if !epoch_loss.is_finite() || self.params_non_finite(model) {
            self.diverged_at = Some(self.epoch);
            self.diverged_loss = epoch_loss;
            for (&p, snap) in self.params.iter().zip(&self.best_snapshot) {
                *model.store.value_mut(p) = snap.clone();
            }
            self.rolled_back = true;
            return true;
        }
        if epoch_loss <= self.best_loss {
            self.best_loss = epoch_loss;
            self.best_snapshot = self
                .params
                .iter()
                .map(|&p| model.store.value(p).clone())
                .collect();
        }
        self.epoch += 1;
        false
    }
}

/// Runs both training phases over prepared queries.
pub fn run_training(model: &mut NeurSc, prepared: &[PreparedQuery]) -> TrainReport {
    run_training_obs(model, prepared, crate::obs::noop())
}

/// [`run_training`] with observability: phase/epoch spans
/// (`train.pretrain`, `train.adversarial`, `train.epoch`,
/// `train.discriminator`), a `train.epoch_loss` gauge, `train.epoch.ns`
/// histogram, `train.grad_norm` gauge (pre-clip, when clipping is on) and a
/// `train.divergence.rollback` counter delivered to `sink`. Identical
/// training behavior by construction.
pub fn run_training_obs(
    model: &mut NeurSc,
    prepared: &[PreparedQuery],
    sink: &std::sync::Arc<dyn ObsSink>,
) -> TrainReport {
    crate::obs::scope(sink, crate::obs::lane::ROOT, || {
        run_training_inner(model, prepared, sink)
    })
}

/// Tells glibc's allocator, once per process, to keep freed heap memory for
/// reuse instead of handing it back to the kernel. A no-op with any other
/// libc, and without effect when the program brings its own allocator.
///
/// A training step builds a tape of up to several MiB, runs it backward and
/// drops it, once per query and epoch. Under glibc's defaults `free` trims
/// the top of the heap whenever more than the trim threshold is free there
/// (128 KiB at start, later twice the largest `mmap`ed block freed so far),
/// which a dropped tape always is — so its pages go back to the kernel and
/// the next tape faults them in again, zeroed. On the benchmark's
/// `train_yeast` that was 3.6 M minor faults and 24% of the process's CPU
/// time spent in the kernel per 25 s run, a quarter of the measured step time,
/// all in the steps with the largest tapes and at a cost per fault that is
/// the host's, not the program's (`throughput_ops_s` ranged 158–190 /s over
/// ten runs; 214–230 /s without the faults). Two settings end it: blocks up
/// to 32 MiB (as far as glibc's own adaptive threshold ever goes) come from
/// the heap instead of `mmap` regions of their own that are unmapped on
/// `free`, and the heap's top is trimmed only once 1 GiB of it is free. What the process has freed stays
/// resident up to that point; its peak does not move. Both override
/// `MALLOC_TRIM_THRESHOLD_`/`MALLOC_MMAP_THRESHOLD_` from the environment.
///
/// Training makes the call itself. It is public for a process that times
/// several trainers side by side — this crate's and others that build their
/// own tapes — and wants all of them under one policy from the start, not
/// from whenever the first NeurSC model happens to train.
///
/// **The policy per process kind.** Training runs under this one.
/// Estimating and serving processes make no `mallopt` call and keep
/// glibc's adaptive defaults: their tensors come from per-lane arenas that
/// keep their buffers ([`neursc_nn::infer::Arena`]), so a warm estimate
/// allocates no tensor storage and its peak is single-mode under the defaults.
/// What a pinned low `mmap` threshold would still take off that peak is
/// featurization's per-query matrices, which a pool could keep the same
/// way (KNOWN_ISSUES.md, "Training changes glibc's allocator policy").
pub fn keep_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // <malloc.h>
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` is thread-safe (it takes the arena lock), and
        // both parameters only decide when memory moves between the
        // allocator and the kernel, never what an allocation returns.
        ONCE.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
        });
    }
}

fn run_training_inner(
    model: &mut NeurSc,
    prepared: &[PreparedQuery],
    sink: &std::sync::Arc<dyn ObsSink>,
) -> TrainReport {
    keep_freed_heap();
    let cfg = model.config.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0074_7261_696e);
    let usable: Vec<&PreparedQuery> = prepared
        .iter()
        .filter(|p| !p.trivially_zero && !p.subs.is_empty())
        .collect();
    let skipped = prepared.len() - usable.len();
    sink.counter_add("train.skipped_queries", skipped as u64);
    if usable.is_empty() {
        return TrainReport {
            pretrain_epochs: 0,
            adversarial_epochs: 0,
            skipped_queries: skipped,
            failed_queries: 0,
            final_loss: f64::NAN,
            diverged_at: None,
            rolled_back: false,
            epoch_losses: Vec::new(),
        };
    }

    let est_params = model.west.params();
    let disc_params = model.disc.as_ref().map(|d| d.params()).unwrap_or_default();
    let mut opt_est = Adam::new(cfg.lr_est);
    let mut opt_disc = Adam::new(cfg.lr_disc);
    let mut final_loss = f64::NAN;
    let mut guard = DivergenceGuard::new(model);
    let mut pre_done = 0;
    let mut adv_done = 0;
    let mut stopped = false;
    let mut epoch_losses = Vec::with_capacity(cfg.pretrain_epochs + cfg.adversarial_epochs);

    // ---- Phase 1: count-loss pre-training --------------------------------
    let mut order: Vec<usize> = (0..usable.len()).collect();
    // One accumulator for the run: `step` leaves it zeroed for the next batch.
    let mut acc = GradAccum::new(model, &est_params);
    {
        let _phase = Span::enter("train.pretrain");
        for _epoch in 0..cfg.pretrain_epochs {
            let _ep = Span::enter("train.epoch");
            let t0 = std::time::Instant::now();
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                for &qi in chunk {
                    let pq = usable[qi];
                    model.store.zero_grads();
                    let mut tape = Tape::new();
                    let Some((_, zs)) = forward_prepared(model, &mut tape, pq) else {
                        continue;
                    };
                    let lc = count_loss(&mut tape, &zs, pq.truth, CountLossMode::LogQError);
                    let l = tape.value(lc).item() as f64;
                    epoch_loss += l;
                    if !l.is_finite() {
                        // A non-finite loss has no usable gradient; the epoch
                        // total is already poisoned and the guard will catch it.
                        continue;
                    }
                    tape.backward(lc, &mut model.store);
                    acc.absorb(model);
                }
                acc.step(model, &mut opt_est, cfg.grad_clip, sink.as_ref());
            }
            final_loss = epoch_loss / usable.len() as f64;
            epoch_losses.push(final_loss);
            sink.gauge_set("train.epoch_loss", final_loss);
            sink.observe("train.epoch.ns", t0.elapsed().as_nanos() as u64);
            if guard.observe_epoch(model, final_loss) {
                stopped = true;
                break;
            }
            pre_done += 1;
        }
    }

    // ---- Phase 2: adversarial fine-tuning (Algorithm 3) ------------------
    let _phase = Span::enter("train.adversarial");
    for _epoch in 0..cfg.adversarial_epochs {
        if stopped {
            break;
        }
        let _ep = Span::enter("train.epoch");
        let t0 = std::time::Instant::now();
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            for &qi in chunk {
                let pq = usable[qi];
                let mut tape = Tape::new();
                let Some((outs, zs)) = forward_prepared(model, &mut tape, pq) else {
                    continue;
                };

                // Lines 10–12: critic updates on detached representations
                // (these zero/overwrite store grads; θ grads live in `acc`).
                if cfg.uses_discriminator() {
                    let _disc_sp = Span::enter("train.discriminator");
                    for (out, sub) in outs.iter().zip(&pq.subs) {
                        let hq_val = tape.value(out.h_q).clone();
                        let hs_val = tape.value(out.h_sub).clone();
                        for _ in 0..cfg.iter_disc {
                            train_discriminator_once(
                                model,
                                &hq_val,
                                &hs_val,
                                &sub.local_cs,
                                &disc_params,
                                &mut opt_disc,
                            );
                            sink.counter_add("train.critic_steps", 1);
                        }
                    }
                }

                // Lines 13–15: joint loss for θ.
                let lc = count_loss(&mut tape, &zs, pq.truth, CountLossMode::LogQError);
                epoch_loss += tape.value(lc).item() as f64;
                let n_subs = outs.len() as f32;
                let mut adv_terms: Option<Var> = None;
                for (out, sub) in outs.iter().zip(&pq.subs) {
                    let term = adversarial_term(model, &mut tape, out, &sub.local_cs);
                    if let Some(t) = term {
                        adv_terms = Some(match adv_terms {
                            Some(acc_t) => tape.add(acc_t, t),
                            None => t,
                        });
                    }
                }
                let total = match adv_terms {
                    Some(adv) => {
                        let lc_w = tape.scale(lc, 1.0 - cfg.beta);
                        let adv_w = tape.scale(adv, cfg.beta / n_subs);
                        tape.add(lc_w, adv_w)
                    }
                    None => lc,
                };
                if !(tape.value(total).item() as f64).is_finite() {
                    continue;
                }
                model.store.zero_grads();
                tape.backward(total, &mut model.store);
                // Only θ gradients are absorbed; ω gradients from L_w are
                // dropped (ω is stepped exclusively by its own optimizer).
                acc.absorb(model);
            }
            acc.step(model, &mut opt_est, cfg.grad_clip, sink.as_ref());
        }
        final_loss = epoch_loss / usable.len() as f64;
        epoch_losses.push(final_loss);
        sink.gauge_set("train.epoch_loss", final_loss);
        sink.observe("train.epoch.ns", t0.elapsed().as_nanos() as u64);
        if guard.observe_epoch(model, final_loss) {
            break;
        }
        adv_done += 1;
    }

    if guard.rolled_back {
        // The reported loss is the checkpoint actually left in the model;
        // the diverged value travels in `NeurScError::Divergence` when the
        // caller asked to fail hard.
        final_loss = guard.diverged_loss;
        sink.counter_add("train.divergence.rollback", 1);
    }
    TrainReport {
        pretrain_epochs: pre_done,
        adversarial_epochs: adv_done,
        skipped_queries: skipped,
        failed_queries: 0,
        final_loss,
        diverged_at: guard.diverged_at,
        rolled_back: guard.rolled_back,
        epoch_losses,
    }
}

/// The differentiable distance term added to the θ loss (the `L̄_w` slot of
/// Eq. 11). Returns `None` when no correspondence pairs exist.
fn adversarial_term(
    model: &NeurSc,
    tape: &mut Tape,
    out: &WestOutput,
    local_cs: &[Vec<u32>],
) -> Option<Var> {
    let cfg = &model.config;
    match cfg.metric {
        DiscriminatorMetric::Wasserstein => {
            let disc = model.disc.as_ref()?;
            // Critic scores with current ω (ω grads discarded at step time).
            let f_q = disc.score(tape, &model.store, out.h_q);
            let f_s = disc.score(tape, &model.store, out.h_sub);
            let fq_vals: Vec<f32> = tape.value(f_q).data().to_vec();
            let fs_vals: Vec<f32> = tape.value(f_s).data().to_vec();
            let (qs, ds) = if cfg.candidate_guided_correspondence {
                select_correspondence(&fq_vals, &fs_vals, local_cs)
            } else {
                select_correspondence_unconstrained(&fq_vals, &fs_vals)
            };
            if qs.is_empty() {
                return None;
            }
            Some(wasserstein_loss(tape, f_q, f_s, &qs, &ds))
        }
        metric => {
            let (qs, ds) =
                select_nearest_pairs(tape.value(out.h_q), tape.value(out.h_sub), local_cs, metric);
            if qs.is_empty() {
                return None;
            }
            Some(metric_loss(tape, out.h_q, out.h_sub, &qs, &ds, metric))
        }
    }
}

/// One critic ascent step on detached representations: maximize `L_w`
/// (minimize `−L_w`), then clamp ω (paper lines 10–12).
fn train_discriminator_once(
    model: &mut NeurSc,
    hq_val: &Tensor,
    hs_val: &Tensor,
    local_cs: &[Vec<u32>],
    disc_params: &[neursc_nn::ParamId],
    opt_disc: &mut Adam,
) {
    let Some(disc) = model.disc.as_ref() else {
        return;
    };
    let mut tape = Tape::new();
    let hq = tape.constant(hq_val.clone());
    let hs = tape.constant(hs_val.clone());
    let f_q = disc.score(&mut tape, &model.store, hq);
    let f_s = disc.score(&mut tape, &model.store, hs);
    let fq_vals: Vec<f32> = tape.value(f_q).data().to_vec();
    let fs_vals: Vec<f32> = tape.value(f_s).data().to_vec();
    let (qs, ds) = if model.config.candidate_guided_correspondence {
        select_correspondence(&fq_vals, &fs_vals, local_cs)
    } else {
        select_correspondence_unconstrained(&fq_vals, &fs_vals)
    };
    if qs.is_empty() {
        return;
    }
    let lw = wasserstein_loss(&mut tape, f_q, f_s, &qs, &ds);
    let neg = tape.neg(lw);
    // Use a dedicated grad pass: zero, backward, step ω, clamp, re-zero.
    model.store.zero_grads();
    tape.backward(neg, &mut model.store);
    // The tape shares ω's values with the store; let go of them before the
    // step changes them, or each would be copied first.
    drop(tape);
    opt_disc.step_subset(&mut model.store, disc_params);
    let clamp = disc.clamp;
    neursc_nn::optim::clamp_params(&mut model.store, disc_params, -clamp, clamp);
    model.store.zero_grads();
}

/// Out-of-store gradient accumulator for the estimation parameters: keeps
/// θ gradients safe while the critic's interleaved updates clobber the
/// store's gradient slots.
struct GradAccum {
    params: Vec<neursc_nn::ParamId>,
    bufs: Vec<Tensor>,
    count: usize,
}

impl GradAccum {
    fn new(model: &NeurSc, params: &[neursc_nn::ParamId]) -> Self {
        let bufs = params
            .iter()
            .map(|&p| {
                let (r, c) = model.store.value(p).shape();
                Tensor::zeros(r, c)
            })
            .collect();
        GradAccum {
            params: params.to_vec(),
            bufs,
            count: 0,
        }
    }

    /// Adds the store's current θ gradients into the buffers.
    fn absorb(&mut self, model: &NeurSc) {
        for (&p, buf) in self.params.iter().zip(&mut self.bufs) {
            buf.add_assign(model.store.grad(p));
        }
        self.count += 1;
    }

    /// Writes averaged gradients back, clips their global norm when asked
    /// (gauging the pre-clip norm to the sink), and steps the optimizer.
    fn step(
        &mut self,
        model: &mut NeurSc,
        opt: &mut Adam,
        grad_clip: Option<f32>,
        sink: &dyn ObsSink,
    ) {
        if self.count == 0 {
            return;
        }
        let inv = 1.0 / self.count as f32;
        for (&p, buf) in self.params.iter().zip(&self.bufs) {
            let g = model.store.grad_mut(p);
            g.fill(0.0);
            g.axpy_assign(inv, buf);
        }
        if let Some(max_norm) = grad_clip {
            let norm = neursc_nn::optim::clip_grad_norm(&mut model.store, &self.params, max_norm);
            sink.gauge_set("train.grad_norm", norm as f64);
        }
        opt.step_subset(&mut model.store, &self.params);
        model.store.zero_grads();
        for buf in &mut self.bufs {
            buf.fill(0.0);
        }
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::model::NeurSc;
    use neursc_graph::generate::erdos_renyi;
    use neursc_graph::sample::{sample_query, QuerySampler};
    use neursc_match::count_embeddings;

    fn quick_cfg() -> NeurScConfig {
        let mut c = NeurScConfig::small();
        c.pretrain_epochs = 2;
        c.adversarial_epochs = 1;
        c.batch_size = 4;
        c
    }

    #[test]
    fn prepare_query_extracts_substructures() {
        let g = erdos_renyi(100, 300, 3, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        let pq = prepare_query_with(&q, &g, &quick_cfg(), 5, &GraphContext::new()).unwrap();
        assert_eq!(pq.truth, 5);
        assert_eq!(pq.x_q.rows(), 4);
        assert!(!pq.trivially_zero);
        assert!(!pq.subs.is_empty());
        for sub in &pq.subs {
            assert_eq!(sub.local_cs.len(), 4);
            assert_eq!(sub.edges.n_vertices, sub.x.rows());
        }
    }

    #[test]
    fn prepare_query_no_extraction_uses_whole_graph() {
        let g = erdos_renyi(50, 150, 3, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        let cfg = quick_cfg().with_variant(Variant::NoExtraction);
        let pq = prepare_query_with(&q, &g, &cfg, 0, &GraphContext::new()).unwrap();
        assert_eq!(pq.subs.len(), 1);
        assert_eq!(pq.subs[0].x.rows(), g.n_vertices());
    }

    #[test]
    fn prepare_query_marks_impossible_queries() {
        let g = erdos_renyi(50, 150, 3, 3);
        let q = neursc_graph::Graph::from_edges(2, &[0, 42], &[(0, 1)]).unwrap();
        let pq = prepare_query_with(&q, &g, &quick_cfg(), 0, &GraphContext::new()).unwrap();
        assert!(pq.trivially_zero);
        assert!(pq.subs.is_empty());
    }

    #[test]
    fn training_report_counts_skipped_queries() {
        let g = erdos_renyi(80, 240, 3, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut labeled = Vec::new();
        while labeled.len() < 6 {
            let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
            if let Some(c) = count_embeddings(&q, &g, 50_000_000).exact() {
                labeled.push((q, c));
            }
        }
        // Add two impossible queries that extraction must skip.
        labeled.push((
            neursc_graph::Graph::from_edges(2, &[0, 42], &[(0, 1)]).unwrap(),
            0,
        ));
        labeled.push((
            neursc_graph::Graph::from_edges(2, &[1, 77], &[(0, 1)]).unwrap(),
            0,
        ));
        let mut model = NeurSc::new(quick_cfg(), 4);
        let report = model.fit(&g, &labeled).unwrap();
        assert_eq!(report.skipped_queries, 2);
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn all_skipped_training_set_yields_nan_loss() {
        let g = erdos_renyi(30, 60, 2, 5);
        let impossible = vec![(
            neursc_graph::Graph::from_edges(2, &[0, 42], &[(0, 1)]).unwrap(),
            0u64,
        )];
        let mut model = NeurSc::new(quick_cfg(), 5);
        let report = model.fit(&g, &impossible).unwrap();
        assert_eq!(report.skipped_queries, 1);
        assert!(report.final_loss.is_nan());
        assert_eq!(report.pretrain_epochs, 0);
    }

    #[test]
    fn forward_prepared_returns_one_logcount_per_substructure() {
        let g = erdos_renyi(100, 300, 3, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        let model = NeurSc::new(quick_cfg(), 6);
        let pq = prepare_query_with(&q, &g, &model.config, 0, &GraphContext::new()).unwrap();
        let mut tape = Tape::new();
        let (outs, zs) = forward_prepared(&model, &mut tape, &pq).unwrap();
        assert_eq!(outs.len(), pq.subs.len());
        assert_eq!(zs.len(), pq.subs.len());
        for z in zs {
            assert!(tape.value(z).item().is_finite());
        }
    }
}

/// Featurizes a query using the **perfect substructure** oracle
/// (`NeurSC w/ PS`, Fig. 11): the substructure induced on exactly the data
/// vertices participating in ground-truth matches, instead of the filtered
/// candidate union. Falls back to regular extraction when the enumeration
/// exceeds `oracle_budget` — this is why the paper calls the variant "time
/// consuming to obtain".
pub fn prepare_query_perfect(
    q: &Graph,
    g: &Graph,
    cfg: &NeurScConfig,
    truth: u64,
    oracle_budget: u64,
) -> Result<PreparedQuery, NeurScError> {
    validate_query(q, cfg)?;
    let Some(matched) = neursc_match::enumerate::matched_vertex_set(q, g, oracle_budget) else {
        return prepare_query_with(q, g, cfg, truth, &GraphContext::new()); // oracle too expensive
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7065_7266);
    let x_q = init_features(q, &cfg.features);
    let q_edges = EdgeList::from_graph(q);
    if matched.is_empty() {
        return Ok(PreparedQuery {
            x_q,
            q_edges,
            subs: Vec::new(),
            truth,
            trivially_zero: true,
            degraded: false,
            report: PipelineReport::default(),
        });
    }
    // Perfect substructure(s): induced on the matched set, split into
    // components; candidates restricted to the matched vertices.
    let cs = neursc_match::filter_candidates(q, g, &cfg.filter);
    let induced = neursc_graph::induced::induced_subgraph(g, &matched);
    let comps = neursc_graph::induced::connected_components(&induced.graph);
    let mut subs = Vec::new();
    for comp in comps {
        let origin: Vec<u32> = comp
            .origin
            .iter()
            .map(|&mid| induced.origin[mid as usize])
            .collect();
        let local_cs: Vec<Vec<u32>> = cs
            .sets
            .iter()
            .map(|set| {
                set.iter()
                    .filter_map(|&v| origin.binary_search(&v).ok().map(|i| i as u32))
                    .collect()
            })
            .collect();
        let sub = crate::extraction::Substructure {
            graph: comp.graph,
            origin,
            local_cs,
        };
        if !sub.covers_all() {
            continue;
        }
        subs.push(PreparedSub {
            x: init_features(&sub.graph, &cfg.features),
            edges: EdgeList::from_graph(&sub.graph),
            gb: build_bipartite_edges(q, &sub, &mut rng),
            local_cs: sub.local_cs,
        });
    }
    Ok(PreparedQuery {
        x_q,
        q_edges,
        subs,
        truth,
        trivially_zero: false,
        degraded: false,
        report: PipelineReport::default(),
    })
}

#[cfg(test)]
mod perfect_tests {
    use super::*;
    use neursc_graph::generate::erdos_renyi;
    use neursc_graph::sample::{sample_query, QuerySampler};
    use neursc_match::count_embeddings;

    #[test]
    fn perfect_substructures_are_never_larger_than_extracted() {
        let g = erdos_renyi(150, 500, 3, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = NeurScConfig::small();
        for _ in 0..5 {
            let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
            if count_embeddings(&q, &g, 100_000_000).exact().is_none() {
                continue;
            }
            let regular = prepare_query_with(&q, &g, &cfg, 0, &GraphContext::new()).unwrap();
            let perfect = prepare_query_perfect(&q, &g, &cfg, 0, 200_000_000).unwrap();
            let reg_vertices: usize = regular.subs.iter().map(|s| s.x.rows()).sum();
            let perf_vertices: usize = perfect.subs.iter().map(|s| s.x.rows()).sum();
            assert!(
                perf_vertices <= reg_vertices,
                "perfect {perf_vertices} > extracted {reg_vertices}"
            );
            assert!(perf_vertices >= q.n_vertices());
        }
    }

    #[test]
    fn perfect_marks_zero_count_queries() {
        let g = erdos_renyi(50, 150, 3, 8);
        let q = neursc_graph::Graph::from_edges(2, &[0, 42], &[(0, 1)]).unwrap();
        let pq = prepare_query_perfect(&q, &g, &NeurScConfig::small(), 0, 1_000_000).unwrap();
        assert!(pq.trivially_zero);
    }

    #[test]
    fn oracle_budget_falls_back_to_extraction() {
        let g = erdos_renyi(150, 500, 3, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let q = sample_query(&g, &QuerySampler::induced(4), &mut rng).unwrap();
        let cfg = NeurScConfig::small();
        let fallback = prepare_query_perfect(&q, &g, &cfg, 3, 0).unwrap(); // budget 0
        let regular = prepare_query_with(&q, &g, &cfg, 3, &GraphContext::new()).unwrap();
        assert_eq!(fallback.subs.len(), regular.subs.len());
    }
}
