//! The sharded verification engine: shard batch queues fan out over
//! [`ule_obs::pool::map`], the pool the `ule-bench` sweep engine also
//! uses — a worker thread that cannot be spawned shrinks the pool, and
//! results are identical whatever its width.
//!
//! Each shard also advances its own *virtual clock* (see
//! [`crate::vtime`]): batches start at `max(shard_clock, ready)` and
//! finish `service_cycles` later, so every latency figure is computed
//! from the plan, never from the host's wall clock — worker-thread
//! degradation cannot perturb a single histogram bucket.

use ule_curves::ecdsa::{self, BatchItem};
use ule_curves::params::Curve;
use ule_curves::scalar::OpCount;
use ule_obs::hist::LatencyHist;

use crate::request::{Response, ShardPlan};
use crate::vtime::{BatchTrace, CostModel};

/// One shard's verification results.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Per-request responses, in batch order.
    pub responses: Vec<Response>,
    /// Requests accepted.
    pub accepted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Responses disagreeing with the generator's expectation.
    pub mismatches: usize,
    /// Batches processed.
    pub batches: usize,
    /// Batches proven whole by the RLC fast path.
    pub rlc_batches: usize,
    /// Batches that fell back to per-item verification.
    pub fallback_batches: usize,
    /// Host group-operation census for the shard.
    pub ops: OpCount,
    /// Latency histogram of the shard's requests (virtual cycles).
    pub hist: LatencyHist,
    /// The shard's executed batches on the virtual timeline.
    pub traces: Vec<BatchTrace>,
    /// Virtual cycles the shard spent verifying.
    pub busy_cycles: u64,
}

/// Verifies every shard's batch queue, fanning shards out across up to
/// `plans.len()` worker threads. Verdicts, op censuses and the whole
/// virtual timeline are a pure function of the plans, `seed` and
/// `model`; only wall-clock timing varies with the pool width.
pub fn run_shards(
    curve: &Curve,
    plans: &[ShardPlan],
    seed: u64,
    model: &CostModel,
) -> Vec<ShardOutcome> {
    ule_obs::pool::map(plans, plans.len(), "serve", |plan| {
        process_shard(curve, plan, seed, model)
    })
}

/// Verifies one shard's batches in global-index order, advancing the
/// shard's virtual clock as it goes.
fn process_shard(curve: &Curve, plan: &ShardPlan, seed: u64, model: &CostModel) -> ShardOutcome {
    let mut out = ShardOutcome {
        shard: plan.shard,
        responses: Vec::with_capacity(plan.requests()),
        accepted: 0,
        rejected: 0,
        mismatches: 0,
        batches: 0,
        rlc_batches: 0,
        fallback_batches: 0,
        ops: OpCount::default(),
        hist: LatencyHist::new(),
        traces: Vec::with_capacity(plan.batches.len()),
        busy_cycles: 0,
    };
    let mut clock = 0u64;
    for batch in &plan.batches {
        let public = batch.keys.public();
        let items: Vec<BatchItem> = batch.requests.iter().map(|r| r.item.clone()).collect();
        // Distinct RLC coin per (run, global batch): a forged batch
        // that survived one draw would face fresh coefficients on any
        // retry. Keyed on the *global* index, not the shard, so the
        // verdict stream is shard-count-invariant.
        let batch_seed = seed ^ ((batch.index as u64) << 8) ^ 0x62a7;
        let verdict = ecdsa::verify_batch_prehashed(curve, &public, &items, batch_seed);
        out.batches += 1;
        if verdict.rlc_accepted {
            out.rlc_batches += 1;
        } else {
            out.fallback_batches += 1;
        }
        let service = model.service_cycles(crate::metrics::weighted_ops(&verdict.ops));
        out.ops += verdict.ops;
        // Virtual timeline: the batch is ready once its last request
        // arrived; the shard picks it up as soon as it is idle.
        let ready = batch
            .requests
            .iter()
            .map(|r| r.arrival_cycles)
            .max()
            .unwrap_or(0);
        let start = clock.max(ready);
        let end = start + service;
        clock = end;
        out.busy_cycles += service;
        out.traces.push(BatchTrace {
            index: batch.index,
            shard: plan.shard,
            items: batch.requests.len(),
            ready_cycles: ready,
            start_cycles: start,
            end_cycles: end,
            service_cycles: service,
        });
        for (request, ok) in batch.requests.iter().zip(&verdict.ok) {
            if *ok {
                out.accepted += 1;
            } else {
                out.rejected += 1;
            }
            if *ok != request.expect_ok {
                out.mismatches += 1;
            }
            out.hist.record(end - request.arrival_cycles);
            out.responses.push(Response {
                id: request.id,
                ok: *ok,
                expect_ok: request.expect_ok,
                arrival_cycles: request.arrival_cycles,
                done_cycles: end,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::plan_shards;
    use crate::ServeConfig;
    use ule_curves::params::CurveId;

    fn model(curve: CurveId, cfg: &ServeConfig) -> CostModel {
        CostModel::for_curve(&curve.curve(), cfg.cycles_per_verify)
    }

    #[test]
    fn sharded_run_matches_sequential_processing() {
        let curve = CurveId::P192.curve();
        let cfg = ServeConfig {
            requests: 40,
            batch_size: 4,
            shards: 4,
            seed: 11,
            ..ServeConfig::new(CurveId::P192)
        };
        let m = model(CurveId::P192, &cfg);
        let plans = plan_shards(&curve, &cfg);
        let pooled = run_shards(&curve, &plans, cfg.seed, &m);
        let sequential: Vec<ShardOutcome> = plans
            .iter()
            .map(|p| process_shard(&curve, p, cfg.seed, &m))
            .collect();
        for (a, b) in pooled.iter().zip(&sequential) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.hist, b.hist, "virtual timing must not see the pool");
            assert_eq!(a.traces, b.traces);
            assert_eq!(a.responses.len(), b.responses.len());
            for (ra, rb) in a.responses.iter().zip(&b.responses) {
                assert_eq!(
                    (ra.id, ra.ok, ra.done_cycles),
                    (rb.id, rb.ok, rb.done_cycles)
                );
            }
        }
    }

    #[test]
    fn responses_preserve_batch_order_and_time_moves_forward() {
        let curve = CurveId::K163.curve();
        let cfg = ServeConfig {
            requests: 30,
            batch_size: 7, // deliberately not a divisor: ragged batches
            shards: 2,
            seed: 3,
            ..ServeConfig::new(CurveId::K163)
        };
        let plans = plan_shards(&curve, &cfg);
        let outcomes = run_shards(&curve, &plans, cfg.seed, &model(CurveId::K163, &cfg));
        for (plan, outcome) in plans.iter().zip(&outcomes) {
            assert_eq!(outcome.mismatches, 0);
            let want: Vec<u64> = plan
                .batches
                .iter()
                .flat_map(|b| b.requests.iter().map(|r| r.id))
                .collect();
            let got: Vec<u64> = outcome.responses.iter().map(|r| r.id).collect();
            assert_eq!(want, got);
            for r in &outcome.responses {
                assert!(
                    r.done_cycles > r.arrival_cycles,
                    "request {} answered before it arrived",
                    r.id
                );
            }
            let mut prev_end = 0u64;
            for t in &outcome.traces {
                assert!(t.start_cycles >= t.ready_cycles);
                assert!(
                    t.start_cycles >= prev_end,
                    "shard served two batches at once"
                );
                assert_eq!(t.end_cycles - t.start_cycles, t.service_cycles);
                prev_end = t.end_cycles;
            }
            assert_eq!(outcome.hist.count(), outcome.responses.len() as u64);
        }
    }
}
