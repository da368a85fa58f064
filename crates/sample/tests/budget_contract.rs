//! The cross-backend budget contract (DESIGN.md "Failure semantics",
//! KNOWN_ISSUES.md "Sampling-backend caveats"): a starved filtering
//! budget is a typed `NeurScError::Budget`; a budget that survives
//! filtering but cannot afford the full trial count *degrades* (fewer
//! trials, `degraded: true`, wider interval — never a wrong answer); an
//! unbounded budget is clean. Identical in shape to the WEst contract so
//! the serve router can swap backends without changing client-visible
//! failure semantics.

use neursc_core::{Estimator, GraphContext, NeurScError};
use neursc_graph::generate::erdos_renyi;
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use neursc_sample::{SampleConfig, SampleEstimator};

fn setup() -> (Graph, Graph, SampleEstimator) {
    let g = erdos_renyi(80, 240, 3, 5);
    let q = Graph::from_edges(3, &[0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
    let est = SampleEstimator::new(SampleConfig::default().with_trials(256));
    (g, q, est)
}

#[test]
fn unbounded_budget_is_clean() {
    let (g, q, est) = setup();
    let d = est
        .estimate_component(&q, &g, &GraphContext::new(), None, 1, false)
        .unwrap();
    assert!(!d.degraded);
    assert!(d.ci.is_some());
}

#[test]
fn starved_budget_fails_typed_inside_filtering() {
    // steps(0) exhausts during local pruning — the same typed error, at
    // the same ladder rung, as the WEst backend under the same budget.
    let (g, q, est) = setup();
    let err = est
        .estimate_component(
            &q,
            &g,
            &GraphContext::new(),
            Some(FilterBudget::steps(0)),
            1,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, NeurScError::Budget { .. }), "got {err}");
}

#[test]
fn budget_that_survives_filtering_but_affords_no_trials_fails_typed() {
    // Find the filtering cost, then grant exactly it: zero affordable
    // trials must be a typed Budget error naming the shortfall, not a
    // silent zero-trial "estimate".
    let (g, q, est) = setup();
    let clean = est
        .estimate_component(&q, &g, &GraphContext::new(), None, 1, false)
        .unwrap();
    let filter_steps = clean.report.filter_steps;
    let err = est
        .estimate_component(
            &q,
            &g,
            &GraphContext::new(),
            Some(FilterBudget::steps(filter_steps)),
            1,
            false,
        )
        .unwrap_err();
    match &err {
        NeurScError::Budget { detail } => {
            assert!(
                detail.contains("sampling budget exhausted"),
                "detail should name the sampling shortfall: {detail}"
            );
        }
        other => panic!("expected Budget, got {other}"),
    }
}

#[test]
fn partial_trial_budget_degrades_with_a_wider_interval() {
    let (g, q, est) = setup();
    let clean = est
        .estimate_component(&q, &g, &GraphContext::new(), None, 1, false)
        .unwrap();
    // Afford filtering plus ~1/4 of the trials (3 steps per trial, i.e.
    // one per query vertex).
    let steps = clean.report.filter_steps + (est.config.trials as u64 / 4) * 3;
    let d = est
        .estimate_component(
            &q,
            &g,
            &GraphContext::new(),
            Some(FilterBudget::steps(steps)),
            1,
            false,
        )
        .unwrap();
    assert!(d.degraded, "reduced trial count must be flagged");
    let (full, cut) = (clean.ci.unwrap(), d.ci.unwrap());
    assert!(
        cut.high - cut.low > full.high - full.low,
        "fewer trials must widen the interval: full [{}, {}] vs cut [{}, {}]",
        full.low,
        full.high,
        cut.low,
        cut.high
    );
}

#[test]
fn degraded_refinement_stays_unbiased_only_noisier() {
    // Exhausting the budget *during refinement* leaves looser but still
    // complete candidate sets: the estimate remains an estimate of the
    // same count (completeness ⇒ unbiasedness), flagged degraded.
    let (g, q, est) = setup();
    let clean = est
        .estimate_component(&q, &g, &GraphContext::new(), None, 1, false)
        .unwrap();
    // Search upward from 1 step for the first budget that passes local
    // pruning (Ok) while still being capped somewhere.
    let mut witnessed_degraded_ok = false;
    for steps in (1..=clean.report.filter_steps + 3 * est.config.trials as u64).step_by(50) {
        if let Ok(d) = est.estimate_component(
            &q,
            &g,
            &GraphContext::new(),
            Some(FilterBudget::steps(steps)),
            1,
            false,
        ) {
            if d.degraded {
                witnessed_degraded_ok = true;
                assert!(d.count.is_finite() && d.count >= 0.0);
                assert!(d.ci.is_some());
            }
        }
    }
    assert!(
        witnessed_degraded_ok,
        "some budget between starvation and unbounded must degrade-and-succeed"
    );
}
