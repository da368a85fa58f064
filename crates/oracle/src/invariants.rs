//! The differential and metamorphic invariants checked on every case.
//!
//! Each invariant cross-checks one pipeline stage against the exact
//! backtracking enumerator (or against a transformed run of itself) and
//! returns a [`Violation`] describing the first discrepancy. Checks that
//! would be too expensive on a given case (exact count over the
//! enumeration budget) skip silently — the generator keeps such cases
//! rare, and skipping keeps every reported violation a *real* bug rather
//! than a resource artifact.

use crate::gen::{build_graph, Case};
use neursc_core::{Estimator, GraphContext, NeurSc, NeurScConfig};
use neursc_graph::induced::{connected_components, induced_subgraph};
use neursc_graph::types::{Label, VertexId};
use neursc_graph::Graph;
use neursc_match::candidates::local_pruning;
use neursc_match::enumerate::count_with_candidates;
use neursc_match::profile::all_profiles;
use neursc_match::refinement::global_refinement;
use neursc_match::{
    count_embeddings, filter_candidates, filter_candidates_budgeted, CandidateSets, FilterBudget,
    FilterConfig,
};
use neursc_sample::{SampleConfig, SampleEstimator};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Expansion budget for exact enumeration inside checks. Cases whose exact
/// count needs more work are skipped by the affected invariant.
pub const ENUM_BUDGET: u64 = 2_000_000;

/// At most this many embeddings are materialized for per-embedding checks
/// (soundness holds or fails on each embedding independently, so checking
/// a prefix never produces a false alarm).
const EMBED_CAP: usize = 4_000;

/// A broken invariant on a concrete case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (the `.case` file key).
    pub invariant: String,
    /// Human-readable description of the discrepancy.
    pub detail: String,
}

impl Violation {
    fn new(inv: Invariant, detail: impl Into<String>) -> Self {
        Violation {
            invariant: inv.name().to_string(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Every invariant the oracle knows, in check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// (a) Every exact embedding maps each query vertex `u` into `CS(u)`,
    /// for unbudgeted **and** budget-degraded candidate sets.
    FilterSoundness,
    /// Degraded candidate sets are supersets of the undegraded ones.
    DegradedSuperset,
    /// (b) Refinement only shrinks candidate sets round over round, and
    /// every intermediate state stays sound.
    RefinementMonotoneSound,
    /// (c) `count(q, G) == Σ_i count(q, G_sub^(i))` for connected queries,
    /// and skipped components contribute 0.
    ExtractionPreservesCount,
    /// (d) `count_with_candidates == brute force` when budgets complete.
    CandidatesMatchBruteForce,
    /// (e) Exact counts and candidate-set contents are invariant under a
    /// permutation of the data-graph vertex ids.
    PermutationInvariance,
    /// (e) … and under an injective renaming of the labels.
    LabelRenameInvariance,
    /// A budget-exhausted `CountResult` is a lower bound, never more.
    PartialCountLowerBound,
    /// Estimates are `Ok`, finite, non-negative, thread-count invariant;
    /// `trivially_zero` implies the exact count is 0.
    EstimateSoundness,
    /// Disconnected queries estimate as the product of their components'
    /// estimates (paper §6.1) at every entry point.
    DisconnectedProduct,
    /// Three-way cross-check of the sampling backend: estimates are `Ok`,
    /// finite, non-negative, thread-count invariant; `trivially_zero`
    /// agrees with the WEst backend (same filter configuration); and an
    /// exact count of 0 forces the estimate to be exactly `0.0` (a
    /// completed Horvitz–Thompson walk *is* an embedding).
    SamplingCrossCheck,
    /// Metamorphic coverage: across independently-seeded sampling runs,
    /// the reported confidence interval covers the exact count at (about)
    /// its configured rate.
    SamplingCiCoverage,
}

impl Invariant {
    /// All invariants, in the order the fuzzer runs them.
    pub const ALL: [Invariant; 12] = [
        Invariant::FilterSoundness,
        Invariant::DegradedSuperset,
        Invariant::RefinementMonotoneSound,
        Invariant::ExtractionPreservesCount,
        Invariant::CandidatesMatchBruteForce,
        Invariant::PermutationInvariance,
        Invariant::LabelRenameInvariance,
        Invariant::PartialCountLowerBound,
        Invariant::EstimateSoundness,
        Invariant::DisconnectedProduct,
        Invariant::SamplingCrossCheck,
        Invariant::SamplingCiCoverage,
    ];

    /// Stable name used in `.case` files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::FilterSoundness => "filter_soundness",
            Invariant::DegradedSuperset => "degraded_superset",
            Invariant::RefinementMonotoneSound => "refinement_monotone_sound",
            Invariant::ExtractionPreservesCount => "extraction_preserves_count",
            Invariant::CandidatesMatchBruteForce => "candidates_match_brute_force",
            Invariant::PermutationInvariance => "permutation_invariance",
            Invariant::LabelRenameInvariance => "label_rename_invariance",
            Invariant::PartialCountLowerBound => "partial_count_lower_bound",
            Invariant::EstimateSoundness => "estimate_soundness",
            Invariant::DisconnectedProduct => "disconnected_product",
            Invariant::SamplingCrossCheck => "sampling_cross_check",
            Invariant::SamplingCiCoverage => "sampling_ci_coverage",
        }
    }

    /// Parses a stable name back (for `.case` replay).
    pub fn parse(s: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.name() == s)
    }

    /// Runs this invariant on `case`. `Ok(())` means "holds or skipped".
    pub fn check(self, case: &Case, oracle: &Oracle) -> Result<(), Violation> {
        match self {
            Invariant::FilterSoundness => check_filter_soundness(case),
            Invariant::DegradedSuperset => check_degraded_superset(case),
            Invariant::RefinementMonotoneSound => check_refinement(case),
            Invariant::ExtractionPreservesCount => check_extraction(case, oracle),
            Invariant::CandidatesMatchBruteForce => check_candidates_count(case),
            Invariant::PermutationInvariance => check_permutation(case),
            Invariant::LabelRenameInvariance => check_label_rename(case),
            Invariant::PartialCountLowerBound => check_lower_bound(case),
            Invariant::EstimateSoundness => check_estimate(case, oracle),
            Invariant::DisconnectedProduct => check_disconnected(case, oracle),
            Invariant::SamplingCrossCheck => check_sampling(case, oracle),
            Invariant::SamplingCiCoverage => check_sampling_coverage(case, oracle),
        }
    }
}

/// Reusable expensive state shared across cases: two untrained models with
/// identical weights but different thread counts (for the thread-count
/// invariance check), plus the oracle's pipeline configuration.
pub struct Oracle {
    /// The pipeline configuration every check runs under.
    pub config: NeurScConfig,
    model_t1: NeurSc,
    model_t2: NeurSc,
    sampler_t1: SampleEstimator,
    sampler_t2: SampleEstimator,
}

impl Oracle {
    /// Builds the oracle state. Weights are seeded deterministically, so
    /// two processes produce identical oracles.
    pub fn new() -> Self {
        let mut config = NeurScConfig::small();
        // Truncation (`max_substructure_vertices`) is lossy *by design*:
        // Definition 3's count preservation only holds for untruncated
        // extraction, so the oracle disables the cap.
        config.max_substructure_vertices = None;
        let model_t1 = NeurSc::new(config.clone(), 0x0f_ace5);
        let mut cfg2 = config.clone();
        cfg2.threads = 2;
        let model_t2 = NeurSc::new(cfg2, 0x0f_ace5);
        // Sampling backends share the model's filter configuration (so
        // both agree on candidate sets and `trivially_zero`), with a
        // modest trial count — the oracle checks soundness properties,
        // not estimate quality.
        let scfg = SampleConfig::from_model_config(&config).with_trials(256);
        let sampler_t1 = SampleEstimator::new(scfg.clone());
        let mut scfg2 = scfg;
        scfg2.threads = 2;
        let sampler_t2 = SampleEstimator::new(scfg2);
        Oracle {
            config,
            model_t1,
            model_t2,
            sampler_t1,
            sampler_t2,
        }
    }
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

/// Runs every invariant on `case`, collecting all violations.
pub fn check_all(case: &Case, oracle: &Oracle) -> Vec<Violation> {
    Invariant::ALL
        .into_iter()
        .filter_map(|inv| inv.check(case, oracle).err())
        .collect()
}

// ---------------------------------------------------------------------------
// Exact enumeration helpers
// ---------------------------------------------------------------------------

/// Result of a capped brute-force enumeration.
struct Brute {
    /// Total embeddings found (exact iff `complete`).
    count: u64,
    /// Up to [`EMBED_CAP`] embeddings, `map[u] = v` in query-id order.
    sample: Vec<Vec<VertexId>>,
    /// Whether the search finished within the step cap.
    complete: bool,
}

/// Brute-force enumeration of embeddings (injective, label- and
/// edge-preserving maps, Definition 1) with a recursion-step cap. Shares
/// no code with the production enumerator — that independence is what
/// makes the differential checks meaningful.
fn brute_enumerate(q: &Graph, g: &Graph, step_cap: u64) -> Brute {
    struct St<'a> {
        q: &'a Graph,
        g: &'a Graph,
        used: Vec<bool>,
        map: Vec<VertexId>,
        out: Brute,
        steps: u64,
        cap: u64,
    }
    fn rec(st: &mut St, depth: usize) {
        if !st.out.complete {
            return;
        }
        if depth == st.q.n_vertices() {
            st.out.count += 1;
            if st.out.sample.len() < EMBED_CAP {
                st.out.sample.push(st.map.clone());
            }
            return;
        }
        let u = depth as VertexId;
        for v in st.g.vertices() {
            st.steps += 1;
            if st.steps > st.cap {
                st.out.complete = false;
                return;
            }
            if st.used[v as usize] || st.g.label(v) != st.q.label(u) {
                continue;
            }
            let consistent =
                st.q.neighbors(u)
                    .iter()
                    .filter(|&&w| (w as usize) < depth)
                    .all(|&w| st.g.has_edge(v, st.map[w as usize]));
            if !consistent {
                continue;
            }
            st.used[v as usize] = true;
            st.map[depth] = v;
            rec(st, depth + 1);
            st.used[v as usize] = false;
        }
    }
    let mut st = St {
        q,
        g,
        used: vec![false; g.n_vertices()],
        map: vec![0; q.n_vertices()],
        out: Brute {
            count: 0,
            sample: Vec::new(),
            complete: true,
        },
        steps: 0,
        cap: step_cap,
    };
    rec(&mut st, 0);
    st.out
}

/// `a ⊆ b` for sorted candidate lists.
fn sorted_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    a.iter().all(|v| b.binary_search(v).is_ok())
}

// ---------------------------------------------------------------------------
// Invariant implementations
// ---------------------------------------------------------------------------

fn embedding_in_sets(
    inv: Invariant,
    cs: &CandidateSets,
    sample: &[Vec<VertexId>],
    what: &str,
) -> Result<(), Violation> {
    for map in sample {
        for (u, &v) in map.iter().enumerate() {
            if !cs.contains(u as VertexId, v) {
                return Err(Violation::new(
                    inv,
                    format!(
                        "{what}: embedding {map:?} maps query vertex {u} to data vertex {v}, \
                         but CS({u}) = {:?} does not contain it",
                        cs.get(u as VertexId)
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn check_filter_soundness(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::FilterSoundness;
    let (q, g) = (&case.query, &case.data);
    let brute = brute_enumerate(q, g, ENUM_BUDGET);
    if brute.sample.is_empty() {
        return Ok(()); // nothing to check (or too heavy — handled below)
    }
    let cfg = FilterConfig::default();
    let cs = filter_candidates(q, g, &cfg);
    embedding_in_sets(inv, &cs, &brute.sample, "unbudgeted filter")?;

    // The same soundness bar applies to every budgeted outcome that
    // returns `Ok` — degraded or not.
    let profiles = all_profiles(g, cfg.profile_radius);
    for steps in [1u64, 7, 31, 257, 4096] {
        match filter_candidates_budgeted(q, g, &cfg, &profiles, &FilterBudget::steps(steps)) {
            Err(_) => {} // local-pruning exhaustion is a typed error, fine
            Ok((out, _)) => embedding_in_sets(
                inv,
                &out.candidates,
                &brute.sample,
                &format!("budgeted filter (steps={steps}, degraded={})", out.degraded),
            )?,
        }
    }
    Ok(())
}

fn check_degraded_superset(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::DegradedSuperset;
    let (q, g) = (&case.query, &case.data);
    let cfg = FilterConfig::default();
    let full = filter_candidates(q, g, &cfg);
    let profiles = all_profiles(g, cfg.profile_radius);
    for steps in [1u64, 7, 31, 257, 4096, u64::MAX] {
        let Ok((out, _)) =
            filter_candidates_budgeted(q, g, &cfg, &profiles, &FilterBudget::steps(steps))
        else {
            continue;
        };
        for u in q.vertices() {
            if !sorted_subset(full.get(u), out.candidates.get(u)) {
                return Err(Violation::new(
                    inv,
                    format!(
                        "budget steps={steps} (degraded={}): CS({u}) = {:?} is not a superset \
                         of the unbudgeted CS({u}) = {:?}",
                        out.degraded,
                        out.candidates.get(u),
                        full.get(u)
                    ),
                ));
            }
        }
        if !out.degraded {
            // An undegraded budgeted run must agree exactly.
            if out.candidates != full {
                return Err(Violation::new(
                    inv,
                    format!(
                        "undegraded budgeted run (steps={steps}) differs from the unbudgeted \
                         pipeline: {:?} vs {:?}",
                        out.candidates.sets, full.sets
                    ),
                ));
            }
        }
    }
    Ok(())
}

fn check_refinement(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::RefinementMonotoneSound;
    let (q, g) = (&case.query, &case.data);
    let brute = brute_enumerate(q, g, ENUM_BUDGET);
    let mut cs = local_pruning(q, g, 1);
    embedding_in_sets(inv, &cs, &brute.sample, "local pruning")?;
    let mut prev = cs.clone();
    for round in 1..=4usize {
        if cs.any_empty() {
            break;
        }
        global_refinement(q, g, &mut cs, 1);
        for u in q.vertices() {
            if !sorted_subset(cs.get(u), prev.get(u)) {
                return Err(Violation::new(
                    inv,
                    format!(
                        "refinement round {round} grew CS({u}): {:?} ⊄ {:?}",
                        cs.get(u),
                        prev.get(u)
                    ),
                ));
            }
        }
        embedding_in_sets(
            inv,
            &cs,
            &brute.sample,
            &format!("refinement round {round}"),
        )?;
        if cs == prev {
            break; // fixed point
        }
        prev = cs.clone();
    }
    Ok(())
}

fn check_extraction(case: &Case, oracle: &Oracle) -> Result<(), Violation> {
    let inv = Invariant::ExtractionPreservesCount;
    let (q, g) = (&case.query, &case.data);
    if connected_components(q).len() != 1 {
        // Definition 3's per-component arithmetic assumes a connected
        // query; disconnected queries route through the §6.1 product
        // (checked by `DisconnectedProduct`).
        return Ok(());
    }
    let Some(exact) = count_embeddings(q, g, ENUM_BUDGET).exact() else {
        return Ok(()); // too heavy for this case
    };
    let ex = neursc_core::extraction::extract_substructures_with(
        q,
        g,
        &oracle.config,
        &GraphContext::new(),
    );
    if ex.trivially_zero {
        if exact != 0 {
            return Err(Violation::new(
                inv,
                format!("extraction claims trivially zero but count(q, G) = {exact}"),
            ));
        }
        return Ok(());
    }
    let mut sum = 0u64;
    for (i, sub) in ex.substructures.iter().enumerate() {
        let Some(c) = count_embeddings(q, &sub.graph, ENUM_BUDGET).exact() else {
            return Ok(());
        };
        sum += c;
        let _ = i;
    }
    if sum != exact {
        return Err(Violation::new(
            inv,
            format!(
                "count(q, G) = {exact} but Σ count(q, G_sub) = {sum} over {} substructures",
                ex.substructures.len()
            ),
        ));
    }
    // Skipped components must contribute 0: re-derive the component split
    // and count inside every component extraction did not retain.
    let union = ex.candidates.union();
    let g_sub = induced_subgraph(g, &union);
    for comp in connected_components(&g_sub.graph) {
        let origin: Vec<VertexId> = comp
            .origin
            .iter()
            .map(|&mid| g_sub.origin[mid as usize])
            .collect();
        let retained = ex.substructures.iter().any(|s| s.origin == origin);
        if retained {
            continue;
        }
        let Some(c) = count_embeddings(q, &comp.graph, ENUM_BUDGET).exact() else {
            return Ok(());
        };
        if c != 0 {
            return Err(Violation::new(
                inv,
                format!(
                    "skipped component (data vertices {origin:?}) holds {c} embeddings — the \
                     skip rule dropped real matches"
                ),
            ));
        }
    }
    Ok(())
}

fn check_candidates_count(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::CandidatesMatchBruteForce;
    let (q, g) = (&case.query, &case.data);
    let brute = brute_enumerate(q, g, ENUM_BUDGET);
    if !brute.complete {
        return Ok(());
    }
    let cs = filter_candidates(q, g, &FilterConfig::default());
    let r = count_with_candidates(q, g, &cs, ENUM_BUDGET);
    let Some(fast) = r.exact() else {
        return Ok(());
    };
    if fast != brute.count {
        return Err(Violation::new(
            inv,
            format!(
                "count_with_candidates = {fast} but brute force = {} (|V(q)|={}, {} components)",
                brute.count,
                q.n_vertices(),
                connected_components(q).len()
            ),
        ));
    }
    Ok(())
}

/// Applies a vertex-id permutation to a graph: vertex `v` becomes `pi[v]`.
fn permute_graph(g: &Graph, pi: &[VertexId]) -> Result<Graph, Violation> {
    let n = g.n_vertices();
    let mut labels: Vec<Label> = vec![0; n];
    for v in g.vertices() {
        labels[pi[v as usize] as usize] = g.label(v);
    }
    let edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .map(|e| (pi[e.u as usize], pi[e.v as usize]))
        .collect();
    build_graph(n, &labels, &edges).map_err(|e| {
        Violation::new(
            Invariant::PermutationInvariance,
            format!("permuted graph failed to build: {e}"),
        )
    })
}

fn check_permutation(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::PermutationInvariance;
    let (q, g) = (&case.query, &case.data);
    let mut pi: Vec<VertexId> = (0..g.n_vertices() as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x7065_726d);
    pi.shuffle(&mut rng);
    let g2 = permute_graph(g, &pi)?;

    let cfg = FilterConfig::default();
    let cs = filter_candidates(q, g, &cfg);
    let cs2 = filter_candidates(q, &g2, &cfg);
    for u in q.vertices() {
        let mut mapped: Vec<VertexId> = cs.get(u).iter().map(|&v| pi[v as usize]).collect();
        mapped.sort_unstable();
        if mapped != cs2.get(u) {
            return Err(Violation::new(
                inv,
                format!(
                    "CS({u}) is not permutation-equivariant: π(CS(u)) = {mapped:?} but the \
                     permuted run produced {:?}",
                    cs2.get(u)
                ),
            ));
        }
    }
    let (a, b) = (
        count_embeddings(q, g, ENUM_BUDGET),
        count_embeddings(q, &g2, ENUM_BUDGET),
    );
    if let (Some(a), Some(b)) = (a.exact(), b.exact()) {
        if a != b {
            return Err(Violation::new(
                inv,
                format!("exact count changed under vertex permutation: {a} vs {b}"),
            ));
        }
    }
    Ok(())
}

fn check_label_rename(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::LabelRenameInvariance;
    let (q, g) = (&case.query, &case.data);
    // Injective rename: l ↦ 2l + 5 (order-preserving, gap-introducing).
    let rename = |l: Label| -> Label { 2 * l + 5 };
    let relabel = |gr: &Graph| -> Result<Graph, Violation> {
        let labels: Vec<Label> = gr.labels().iter().map(|&l| rename(l)).collect();
        let edges: Vec<(VertexId, VertexId)> = gr.edges().map(|e| (e.u, e.v)).collect();
        build_graph(gr.n_vertices(), &labels, &edges)
            .map_err(|e| Violation::new(inv, format!("relabeled graph failed to build: {e}")))
    };
    let (q2, g2) = (relabel(q)?, relabel(g)?);
    let cfg = FilterConfig::default();
    let cs = filter_candidates(q, g, &cfg);
    let cs2 = filter_candidates(&q2, &g2, &cfg);
    if cs != cs2 {
        return Err(Violation::new(
            inv,
            format!(
                "candidate sets changed under injective label renaming: {:?} vs {:?}",
                cs.sets, cs2.sets
            ),
        ));
    }
    let (a, b) = (
        count_embeddings(q, g, ENUM_BUDGET),
        count_embeddings(&q2, &g2, ENUM_BUDGET),
    );
    if let (Some(a), Some(b)) = (a.exact(), b.exact()) {
        if a != b {
            return Err(Violation::new(
                inv,
                format!("exact count changed under label renaming: {a} vs {b}"),
            ));
        }
    }
    Ok(())
}

fn check_lower_bound(case: &Case) -> Result<(), Violation> {
    let inv = Invariant::PartialCountLowerBound;
    let (q, g) = (&case.query, &case.data);
    let Some(exact) = count_embeddings(q, g, ENUM_BUDGET).exact() else {
        return Ok(());
    };
    for budget in [1u64, 3, 17, 101, 1009] {
        let r = count_embeddings(q, g, budget);
        if r.lower_bound() > exact {
            return Err(Violation::new(
                inv,
                format!(
                    "budget {budget}: partial count {} exceeds the exact count {exact}",
                    r.lower_bound()
                ),
            ));
        }
        if let Some(c) = r.exact() {
            if c != exact {
                return Err(Violation::new(
                    inv,
                    format!("budget {budget}: completed with {c}, unbudgeted run says {exact}"),
                ));
            }
        }
    }
    Ok(())
}

fn check_estimate(case: &Case, oracle: &Oracle) -> Result<(), Violation> {
    let inv = Invariant::EstimateSoundness;
    let (q, g) = (&case.query, &case.data);
    let ctx = GraphContext::new();
    let d = match oracle.model_t1.estimate_detailed_with(q, g, &ctx) {
        Ok(d) => d,
        Err(e) => {
            return Err(Violation::new(
                inv,
                format!(
                    "estimate failed on a valid {}-vertex query: {e}",
                    q.n_vertices()
                ),
            ));
        }
    };
    if !d.count.is_finite() || d.count < 0.0 {
        return Err(Violation::new(
            inv,
            format!("estimate is not a finite non-negative number: {}", d.count),
        ));
    }
    if d.trivially_zero {
        if let Some(exact) = count_embeddings(q, g, ENUM_BUDGET).exact() {
            if exact != 0 {
                return Err(Violation::new(
                    inv,
                    format!("estimate claims trivially zero but count(q, G) = {exact}"),
                ));
            }
        }
    }
    // Thread-count invariance: identical weights, threads 1 vs 2.
    let queries = [q.clone()];
    let ctx1 = GraphContext::new();
    let ctx2 = GraphContext::new();
    let r1 = oracle.model_t1.estimate_batch(&queries, g, &ctx1);
    let r2 = oracle.model_t2.estimate_batch(&queries, g, &ctx2);
    match (&r1[0], &r2[0]) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (a, b) => Err(Violation::new(
            inv,
            format!("estimate differs across thread counts: {a:?} vs {b:?}"),
        )),
    }
}

fn check_disconnected(case: &Case, oracle: &Oracle) -> Result<(), Violation> {
    let inv = Invariant::DisconnectedProduct;
    let (q, g) = (&case.query, &case.data);
    let components = connected_components(q);
    if components.len() <= 1 {
        return Ok(());
    }
    let ctx = GraphContext::new();
    let whole = match oracle.model_t1.estimate_detailed_with(q, g, &ctx) {
        Ok(d) => d,
        Err(e) => {
            return Err(Violation::new(
                inv,
                format!(
                    "disconnected query ({} components) must estimate, got error: {e}",
                    components.len()
                ),
            ));
        }
    };
    let mut product = 1.0f64;
    for comp in &components {
        match oracle.model_t1.estimate_with(&comp.graph, g, &ctx) {
            Ok(e) => product *= e,
            Err(e) => {
                return Err(Violation::new(
                    inv,
                    format!("component estimate failed: {e}"),
                ));
            }
        }
    }
    if whole.trivially_zero {
        product = 0.0;
    }
    let tol = 1e-9 * product.abs().max(1.0);
    if (whole.count - product).abs() > tol {
        return Err(Violation::new(
            inv,
            format!(
                "disconnected estimate {} is not the component product {product} \
                 ({} components)",
                whole.count,
                components.len()
            ),
        ));
    }
    Ok(())
}

fn check_sampling(case: &Case, oracle: &Oracle) -> Result<(), Violation> {
    let inv = Invariant::SamplingCrossCheck;
    let (q, g) = (&case.query, &case.data);
    let ctx = GraphContext::new();
    let d = match oracle.sampler_t1.estimate_detailed_with(q, g, &ctx) {
        Ok(d) => d,
        Err(e) => {
            return Err(Violation::new(
                inv,
                format!(
                    "sampling estimate failed on a valid {}-vertex query: {e}",
                    q.n_vertices()
                ),
            ));
        }
    };
    if !d.count.is_finite() || d.count < 0.0 {
        return Err(Violation::new(
            inv,
            format!(
                "sampling estimate is not a finite non-negative number: {}",
                d.count
            ),
        ));
    }
    match d.ci {
        None => {
            return Err(Violation::new(
                inv,
                "sampling result carries no confidence interval",
            ));
        }
        Some(ci) => {
            // Spelled to stay NaN-hostile: a NaN endpoint must violate.
            if ci.low.is_nan() || ci.high.is_nan() || ci.low > ci.high || ci.low < 0.0 {
                return Err(Violation::new(
                    inv,
                    format!("malformed interval [{}, {}]", ci.low, ci.high),
                ));
            }
        }
    }
    // The two backends run the identical filter configuration, so a
    // `trivially_zero` verdict must agree (when WEst itself succeeds;
    // its own failures are EstimateSoundness's to report).
    if let Ok(w) = oracle.model_t1.estimate_detailed_with(q, g, &ctx) {
        if w.trivially_zero != d.trivially_zero {
            return Err(Violation::new(
                inv,
                format!(
                    "trivially_zero disagrees across backends: west={} sample={}",
                    w.trivially_zero, d.trivially_zero
                ),
            ));
        }
    }
    // A completed walk is a real embedding: count(q, G) = 0 forces the
    // estimate to be exactly 0.0, never merely small. Connected queries
    // only — a disconnected query estimates the §6.1 component product,
    // which can be nonzero while the joint count is 0 (the components
    // match individually but never disjointly).
    if connected_components(q).len() == 1 {
        if let Some(exact) = count_embeddings(q, g, ENUM_BUDGET).exact() {
            if exact == 0 && d.count != 0.0 {
                return Err(Violation::new(
                    inv,
                    format!("count(q, G) = 0 but the sampling estimate is {}", d.count),
                ));
            }
        }
    }
    // Thread-count invariance, interval included (`EstimateDetail`
    // equality covers `ci`).
    let queries = [q.clone()];
    let r1 = oracle
        .sampler_t1
        .estimate_batch(&queries, g, &GraphContext::new());
    let r2 = oracle
        .sampler_t2
        .estimate_batch(&queries, g, &GraphContext::new());
    match (&r1[0], &r2[0]) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (a, b) => Err(Violation::new(
            inv,
            format!("sampling estimate differs across thread counts: {a:?} vs {b:?}"),
        )),
    }
}

/// Independent sampling runs for the coverage check.
const COVERAGE_RUNS: usize = 8;
/// Minimum runs whose interval must cover the exact count. Nominal
/// coverage is 95%; the bar is deliberately loose (binomial tail) so only
/// a systematically wrong interval trips it, not one unlucky draw.
const COVERAGE_MIN: usize = 5;

fn check_sampling_coverage(case: &Case, oracle: &Oracle) -> Result<(), Violation> {
    let inv = Invariant::SamplingCiCoverage;
    let (q, g) = (&case.query, &case.data);
    // Coverage of the *exact count* is only claimed for connected
    // queries. A disconnected query estimates the §6.1 component product,
    // which deliberately ignores cross-component injectivity — its
    // interval covers that product, not the joint count.
    if connected_components(q).len() != 1 {
        return Ok(());
    }
    let Some(exact) = count_embeddings(q, g, ENUM_BUDGET).exact() else {
        return Ok(()); // exact count too expensive: skip, never guess
    };
    let exact = exact as f64;
    let mut covered = 0usize;
    for k in 0..COVERAGE_RUNS {
        let cfg = SampleConfig::from_model_config(&oracle.config)
            .with_trials(512)
            .with_seed(0xc0ff_ee00 + k as u64);
        let est = SampleEstimator::new(cfg);
        let d = match est.estimate_detailed_with(q, g, &GraphContext::new()) {
            Ok(d) => d,
            Err(e) => {
                return Err(Violation::new(
                    inv,
                    format!("sampling failed under an unbounded budget: {e}"),
                ));
            }
        };
        let Some(ci) = d.ci else {
            return Err(Violation::new(inv, "sampling result carries no interval"));
        };
        if ci.contains(exact) {
            covered += 1;
        }
    }
    if covered < COVERAGE_MIN {
        return Err(Violation::new(
            inv,
            format!(
                "nominal-95% interval covered the exact count {exact} in only \
                 {covered}/{COVERAGE_RUNS} independent runs"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn brute_enumerate_agrees_with_production_enumerator_on_small_cases() {
        for s in 0..30u64 {
            let c = gen_case(s).unwrap();
            let brute = brute_enumerate(&c.query, &c.data, ENUM_BUDGET);
            if !brute.complete {
                continue;
            }
            let fast = count_embeddings(&c.query, &c.data, ENUM_BUDGET);
            if let Some(f) = fast.exact() {
                assert_eq!(f, brute.count, "seed {s}");
            }
        }
    }

    #[test]
    fn paper_example_passes_every_invariant() {
        let case = Case {
            seed: 0,
            data: neursc_match::profile::paper_data_graph(),
            query: neursc_match::profile::paper_query_graph(),
        };
        let oracle = Oracle::new();
        let violations = check_all(&case, &oracle);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_broken_candidate_set_is_caught() {
        // Remove a genuinely-needed vertex from CS(0) and feed the sets to
        // the counting invariant by hand: soundness must flag it.
        let case = Case {
            seed: 0,
            data: neursc_match::profile::paper_data_graph(),
            query: neursc_match::profile::paper_query_graph(),
        };
        let cfg = FilterConfig::default();
        let mut cs = filter_candidates(&case.query, &case.data, &cfg);
        // v1 (data id 0) is the only candidate of query vertex 0.
        cs.sets[0].clear();
        let brute = brute_enumerate(&case.query, &case.data, ENUM_BUDGET);
        assert!(embedding_in_sets(
            Invariant::FilterSoundness,
            &cs,
            &brute.sample,
            "hand-broken"
        )
        .is_err());
    }

    #[test]
    fn invariant_names_round_trip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::parse(inv.name()), Some(inv));
        }
        assert_eq!(Invariant::parse("nope"), None);
    }
}
