//! Execute stage: one micro-batch through the estimator — model snapshot,
//! routing, the chaos fault plan, `estimate_batch_budgeted` — and each
//! result handed to its request's aggregator.

use super::batcher::Pending;
use super::reply::finish_slot;
use super::{lock, read, Shared};
use crate::proto;
use crate::router::{route, sampler_for_model, Routed};
use neursc_core::{EstimateDetail, Estimator, FaultPlan, GraphContext, NeurScError};
use neursc_graph::Graph;
use neursc_match::FilterBudget;
use std::time::Instant;

pub(super) fn run_batch(shared: &Shared, ctx: &mut GraphContext, batch: Vec<Pending>) {
    // Snapshot the model once per batch: a concurrent reload swaps the
    // Arc for the *next* batch; this one finishes on its snapshot.
    let model = read(&shared.model).clone();
    for p in &batch {
        // Digest-keyed hard kill: unlike a contained panic this takes the
        // whole process down, deterministically, in every incarnation —
        // the supervised-restart drills depend on that repeatability. The
        // admission journal line is already durable, so the supervisor
        // will see this digest in flight.
        if shared.cfg.chaos_abort.contains(&p.req.digest) {
            eprintln!(
                "serve: chaos abort on digest {:016x} (seq {})",
                p.req.digest, p.seq
            );
            std::process::abort();
        }
    }

    // Route every slot, then run each backend's partition as one batch
    // call. Routing is deterministic in the request (see
    // [`crate::router`]); the default `west` choice produces a single
    // all-slots partition — the exact pre-router code path.
    let routes: Vec<Routed> = batch
        .iter()
        .map(|p| {
            route(
                shared.cfg.backend,
                &shared.cfg.router,
                &p.query,
                &shared.graph,
                p.req.deadline_ms,
            )
        })
        .collect();
    let sampler = sampler_for_model(&model.config);
    let metrics = shared.recorder.metrics();

    let t0 = Instant::now();
    let mut slotted: Vec<Option<Result<EstimateDetail, NeurScError>>> =
        batch.iter().map(|_| None).collect();
    for backend in [Routed::West, Routed::Sample] {
        let slots: Vec<usize> = (0..batch.len()).filter(|&i| routes[i] == backend).collect();
        if slots.is_empty() {
            continue;
        }
        let (counter, est): (_, &dyn Estimator) = match backend {
            Routed::West => ("router.backend.west", &*model),
            Routed::Sample => ("router.backend.sample", &sampler),
        };
        metrics.counter_add(counter, slots.len() as u64);
        let queries: Vec<Graph> = slots.iter().map(|&i| batch[i].query.clone()).collect();
        let budgets: Vec<Option<FilterBudget>> =
            slots.iter().map(|&i| batch[i].req.budget).collect();
        // Remap the seq-keyed chaos hooks onto partition-local slots.
        let mut plan = FaultPlan::new();
        for (part_slot, &i) in slots.iter().enumerate() {
            if shared.cfg.chaos_panic.contains(&batch[i].seq) {
                plan = plan.panic_on(part_slot);
            }
            if shared.cfg.chaos_starve.contains(&batch[i].seq) {
                plan = plan.starve_budget_on(part_slot);
            }
        }
        ctx.faults = plan;
        let part = est.estimate_batch_budgeted(&queries, &shared.graph, ctx, &budgets);
        for (&i, r) in slots.iter().zip(part) {
            slotted[i] = Some(r);
        }
    }
    ctx.faults = FaultPlan::new();
    metrics.counter_add("serve.batch", 1);
    metrics.observe("serve.batch.size", batch.len() as u64);
    metrics.observe("serve.batch.ns", t0.elapsed().as_nanos() as u64);

    // Count before replying: a client that pipelines `stats` right after
    // receiving its result must observe that result in `served`.
    lock(&shared.queue).served += batch.len() as u64;
    for (p, r) in batch.iter().zip(slotted) {
        // Every slot was routed to exactly one partition; the fallback is
        // unreachable but keeps library code panic-free.
        let r = r.unwrap_or_else(|| {
            Err(NeurScError::Panicked {
                item: 0,
                message: "router: slot left unrouted".into(),
            })
        });
        finish_slot(shared, &p.req, p.slot, proto::result_to_json(&r));
        // Completion is journaled *after* the reply write: a crash between
        // the two over-suspects (safe) rather than under-suspects.
        if let Some(j) = &shared.journal {
            let _ = j.complete(p.seq);
        }
    }
}
