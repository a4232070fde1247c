//! Service-layer metrics: host op-cost weighting, the batch-size →
//! energy scaling model, `serve_point` / `serve_summary` /
//! `serve_frontier` records, the virtual-time `serve_latency` /
//! `sla_summary` records (schema v5), the batch-size Pareto axis, and
//! the journal validators behind `repro check --serve` and
//! `repro check --sla`.
//!
//! The energy model is a *scaling* model, not a second simulator: the
//! cycle/energy/area of one verification come from the `ule-core`
//! simulator (via [`SimCosts`]), and batching multiplies them by the
//! ratio of weighted host group operations per request between the
//! batched run and the batch-size-1 reference over identical traffic.
//! The weights (double 8, add 11, inversion 80) are the repository's
//! stock host op-cost model from the `ule-curves` scalar benchmarks.

use ule_curves::scalar::OpCount;
use ule_dse::pareto::{Objectives, ParetoFront};
use ule_obs::hist::LatencyHist;
use ule_obs::json::{self, Json, JsonBuf};
use ule_obs::record::Record;
use ule_obs::Value;

use crate::ServeOutcome;

/// Relative host cost of one point doubling.
pub const HOST_WEIGHT_DOUBLE: u64 = 8;
/// Relative host cost of one point addition.
pub const HOST_WEIGHT_ADD: u64 = 11;
/// Relative host cost of one field inversion.
pub const HOST_WEIGHT_INVERSION: u64 = 80;

/// Weighted host group-operation count — the scalar the energy model
/// scales by.
pub fn weighted_ops(ops: &OpCount) -> u64 {
    ops.doubles as u64 * HOST_WEIGHT_DOUBLE
        + ops.adds as u64 * HOST_WEIGHT_ADD
        + ops.inversions as u64 * HOST_WEIGHT_INVERSION
}

/// Per-request op-cost ratio of a batched run against the
/// batch-size-1 reference over the same traffic (< 1 when batching
/// helps). Both outcomes must cover the same request count.
pub fn op_scale(outcome: &ServeOutcome, reference: &ServeOutcome) -> f64 {
    assert_eq!(
        outcome.config.requests, reference.config.requests,
        "op_scale compares runs over identical traffic"
    );
    let ref_ops = weighted_ops(&reference.ops);
    if ref_ops == 0 {
        return 1.0;
    }
    weighted_ops(&outcome.ops) as f64 / ref_ops as f64
}

/// One simulated design point's verification cost, as produced by the
/// `ule-core` simulator for `Workload::Verify`.
#[derive(Clone, Debug)]
pub struct SimCosts {
    /// Architecture label (`baseline`, `isa_ext`, `monte`, `billie`).
    pub arch: String,
    /// Simulated cycles for one verification.
    pub cycles: u64,
    /// Simulated energy for one verification, µJ.
    pub energy_uj: f64,
    /// Silicon-area proxy, kGE.
    pub area_kge: f64,
}

/// Energy per million requests (µJ) at the given op scale.
pub fn energy_uj_per_million_requests(costs: &SimCosts, scale: f64) -> f64 {
    costs.energy_uj * scale * 1e6
}

/// The `serve_point` record: one (curve, arch, batch size) service run.
pub fn serve_point_record(outcome: &ServeOutcome, scale: f64, costs: &SimCosts) -> Record {
    let cfg = &outcome.config;
    let mut r = Record::new("serve_point");
    r.push("curve", cfg.curve.name())
        .push("arch", costs.arch.as_str())
        .push("batch_size", cfg.batch_size as u64)
        .push("shards", cfg.shards as u64)
        .push("requests", cfg.requests as u64)
        .push("seed", cfg.seed)
        .push("accepted", outcome.accepted as u64)
        .push("rejected", outcome.rejected as u64)
        .push("mismatches", outcome.mismatches as u64)
        .push("batches", outcome.batches as u64)
        .push("rlc_batches", outcome.rlc_batches as u64)
        .push("fallback_batches", outcome.fallback_batches as u64)
        .push("host_doubles", outcome.ops.doubles as u64)
        .push("host_adds", outcome.ops.adds as u64)
        .push("host_inversions", outcome.ops.inversions as u64)
        .push("host_weighted_ops", weighted_ops(&outcome.ops))
        .push("op_scale", scale)
        .push(
            "cycles_per_verify",
            (costs.cycles as f64 * scale).round() as u64,
        )
        .push("energy_uj_per_verify", costs.energy_uj * scale)
        .push(
            "energy_uj_per_million_requests",
            energy_uj_per_million_requests(costs, scale),
        )
        // The two wall-clock fields — the only nondeterministic ones.
        .push("signatures_per_sec", outcome.signatures_per_sec())
        .push("wall_ms", outcome.wall.as_secs_f64() * 1e3);
    r
}

/// The `serve_summary` record: gains of the largest batch size over the
/// batch-size-1 reference, across one batch-size sweep.
pub fn serve_summary_record(runs: &[(ServeOutcome, f64)]) -> Record {
    let reference = runs
        .iter()
        .map(|(o, _)| o)
        .find(|o| o.config.batch_size == 1)
        .expect("summary needs the batch-size-1 reference run");
    let largest = runs
        .iter()
        .map(|(o, _)| o)
        .max_by_key(|o| o.config.batch_size)
        .expect("summary needs at least one run");
    let best = runs
        .iter()
        .map(|(o, _)| o)
        .min_by_key(|o| weighted_ops(&o.ops))
        .expect("summary needs at least one run");
    let gain_ops = weighted_ops(&reference.ops) as f64 / weighted_ops(&largest.ops).max(1) as f64;
    let ref_sps = reference.signatures_per_sec();
    let gain_sps = if ref_sps > 0.0 {
        largest.signatures_per_sec() / ref_sps
    } else {
        0.0
    };
    let cfg = &reference.config;
    let sizes: Vec<String> = runs
        .iter()
        .map(|(o, _)| o.config.batch_size.to_string())
        .collect();
    let mut r = Record::new("serve_summary");
    r.push("curve", cfg.curve.name())
        .push("seed", cfg.seed)
        .push("shards", cfg.shards as u64)
        .push("requests", cfg.requests as u64)
        .push(
            "batch_sizes",
            ule_obs::Value::Raw(format!("[{}]", sizes.join(","))),
        )
        .push("best_batch_size", best.config.batch_size as u64)
        .push("gain_batch", largest.config.batch_size as u64)
        .push("gain_ops", gain_ops)
        .push("gain_sps", gain_sps)
        .push(
            "mismatches",
            runs.iter().map(|(o, _)| o.mismatches as u64).sum::<u64>(),
        );
    r
}

/// Builds the (arch × batch size) Pareto frontier — the batch-size DSE
/// axis — and one `serve_frontier` record per frontier point.
///
/// Point ids are `arch_index * runs.len() + run_index`, matching the
/// order of `costs` and `runs`.
pub fn frontier_records(
    costs: &[SimCosts],
    runs: &[(ServeOutcome, f64)],
) -> (ParetoFront, Vec<Record>) {
    let mut front = ParetoFront::new();
    for (ai, c) in costs.iter().enumerate() {
        for (ri, (_, scale)) in runs.iter().enumerate() {
            front.insert(
                ai * runs.len() + ri,
                Objectives {
                    cycles: (c.cycles as f64 * scale).round() as u64,
                    energy_uj: c.energy_uj * scale,
                    area_kge: c.area_kge,
                },
            );
        }
    }
    let records = front
        .points()
        .iter()
        .map(|p| {
            let (ai, ri) = (p.id / runs.len(), p.id % runs.len());
            let mut r = Record::new("serve_frontier");
            r.push("curve", runs[ri].0.config.curve.name())
                .push("arch", costs[ai].arch.as_str())
                .push("batch_size", runs[ri].0.config.batch_size as u64)
                .push("cycles", p.objectives.cycles)
                .push("energy_uj", p.objectives.energy_uj)
                .push("area_kge", p.objectives.area_kge);
            r
        })
        .collect();
    (front, records)
}

/// Pushes one histogram's fields into a record under the fixed
/// `serve_latency` layout (count, extrema, mean, exact-count
/// percentiles, bucket scheme, sparse buckets).
fn push_hist_fields(r: &mut Record, hist: &LatencyHist) {
    r.push("count", hist.count())
        .push("min_cycles", hist.min().unwrap_or(0))
        .push("max_cycles", hist.max().unwrap_or(0))
        .push("sum_cycles", u64::try_from(hist.sum()).unwrap_or(u64::MAX))
        .push("mean_cycles", hist.mean())
        .push("p50_cycles", hist.percentile(50.0))
        .push("p95_cycles", hist.percentile(95.0))
        .push("p99_cycles", hist.percentile(99.0))
        .push("p999_cycles", hist.percentile(99.9))
        .push("hist_sub_bits", u64::from(ule_obs::hist::SUB_BITS))
        .push("hist_buckets", Value::Raw(hist.buckets_json()));
}

/// The config keys every latency and SLA record carries, in order:
/// together they name one run.
const CONFIG_FIELDS: [&str; 7] = [
    "curve",
    "batch_size",
    "shards",
    "requests",
    "seed",
    "arrival_rate",
    "cycles_per_verify",
];

fn push_config_fields(r: &mut Record, outcome: &ServeOutcome) {
    let cfg = &outcome.config;
    let values: [Value; CONFIG_FIELDS.len()] = [
        cfg.curve.name().into(),
        cfg.batch_size.into(),
        cfg.shards.into(),
        cfg.requests.into(),
        cfg.seed.into(),
        cfg.arrival_rate.into(),
        cfg.cycles_per_verify.into(),
    ];
    for (key, value) in CONFIG_FIELDS.into_iter().zip(values) {
        r.push(key, value);
    }
}

/// The `serve_latency` records of one run: the fleet histogram first
/// (`scope:"fleet"`, `shard:-1`), then one record per shard. Every
/// field is a pure function of the config — no wall clock anywhere —
/// so the lines are byte-identical across reruns, and `repro check
/// --sla` re-merges the shard histograms to pin them against the
/// fleet one.
pub fn serve_latency_records(outcome: &ServeOutcome) -> Vec<Record> {
    let mut records = Vec::with_capacity(1 + outcome.telemetry.shard_hists.len());
    let mut fleet = Record::new("serve_latency");
    push_config_fields(&mut fleet, outcome);
    fleet.push("scope", "fleet").push("shard", -1i64);
    push_hist_fields(&mut fleet, &outcome.telemetry.fleet_hist);
    records.push(fleet);
    for (shard, hist) in outcome.telemetry.shard_hists.iter().enumerate() {
        let mut r = Record::new("serve_latency");
        push_config_fields(&mut r, outcome);
        r.push("scope", "shard").push("shard", shard as i64);
        push_hist_fields(&mut r, hist);
        records.push(r);
    }
    records
}

/// The `sla_summary` record: the fleet-level service-level figures of
/// one run — exact-count latency percentiles, queue-depth telemetry,
/// per-shard utilization, and the p99-latency × energy product that
/// ranks design points for ROADMAP item 5.
pub fn sla_summary_record(outcome: &ServeOutcome, scale: f64, costs: &SimCosts) -> Record {
    let t = &outcome.telemetry;
    let p99 = t.fleet_hist.percentile(99.0);
    let energy_per_million = energy_uj_per_million_requests(costs, scale);
    let mut util = JsonBuf::new();
    util.begin_array();
    for u in &t.utilization {
        util.value_f64(*u);
    }
    util.end_array();
    let mut r = Record::new("sla_summary");
    push_config_fields(&mut r, outcome);
    r.push("arch", costs.arch.as_str())
        .push("accepted", outcome.accepted as u64)
        .push("rejected", outcome.rejected as u64)
        .push("mean_latency_cycles", t.fleet_hist.mean())
        .push("p50_latency_cycles", t.fleet_hist.percentile(50.0))
        .push("p95_latency_cycles", t.fleet_hist.percentile(95.0))
        .push("p99_latency_cycles", p99)
        .push("p999_latency_cycles", t.fleet_hist.percentile(99.9))
        .push("queue_depth_max", t.queue_depth_max)
        .push("queue_depth_mean", t.queue_depth_mean)
        .push("horizon_cycles", t.horizon_cycles)
        .push("shard_utilization", Value::Raw(util.finish()))
        .push("op_scale", scale)
        .push("energy_uj_per_million_requests", energy_per_million)
        // The SLA figure of merit: cycles-to-p99 × energy-per-Mreq.
        // Smaller is better on both axes, so smaller products dominate.
        .push("p99_energy_product", p99 as f64 * energy_per_million);
    r
}

/// What `validate_serve` found in a journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeCheck {
    /// `serve_point` records seen.
    pub points: usize,
    /// `serve_summary` records seen.
    pub summaries: usize,
    /// `serve_frontier` records seen.
    pub frontier: usize,
    /// Total mismatches across all points (must be 0).
    pub mismatches: u64,
    /// Smallest `gain_ops` across summaries (∞ if none).
    pub min_gain_ops: f64,
}

/// Validates a serve journal (JSONL text): well-formed records of the
/// v4 schema, zero verdict mismatches, and — when `min_gain_ops` is
/// given — every summary's deterministic batching gain at or above it.
pub fn validate_serve(text: &str, min_gain_ops: Option<f64>) -> Result<ServeCheck, String> {
    let mut check = ServeCheck {
        min_gain_ops: f64::INFINITY,
        ..ServeCheck::default()
    };
    for (n, _, doc) in json::records(text) {
        let doc = doc?;
        let kind = doc.kind().unwrap_or("");
        let ctx = format!("line {n} ({kind})");
        match kind {
            "serve_point" => {
                for key in [
                    "batch_size",
                    "shards",
                    "requests",
                    "accepted",
                    "rejected",
                    "batches",
                    "rlc_batches",
                    "fallback_batches",
                    "host_weighted_ops",
                ] {
                    doc.req_u64(&ctx, key)?;
                }
                for key in [
                    "op_scale",
                    "signatures_per_sec",
                    "energy_uj_per_million_requests",
                ] {
                    doc.req_f64(&ctx, key)?;
                }
                let m = doc.req_u64(&ctx, "mismatches")?;
                if m != 0 {
                    return Err(format!(
                        "{ctx}: {m} verdict mismatches — batch verifier diverged from verify_prehashed"
                    ));
                }
                let accepted = doc.req_u64(&ctx, "accepted")?;
                let rejected = doc.req_u64(&ctx, "rejected")?;
                if accepted + rejected != doc.req_u64(&ctx, "requests")? {
                    return Err(format!("{ctx}: accepted + rejected != requests"));
                }
                check.points += 1;
            }
            "serve_summary" => {
                let gain = doc.req_f64(&ctx, "gain_ops")?;
                if doc.req_u64(&ctx, "mismatches")? != 0 {
                    return Err(format!("{ctx}: nonzero mismatches"));
                }
                if let Some(floor) = min_gain_ops {
                    if gain < floor {
                        return Err(format!(
                            "{ctx}: batching gain {gain:.3}x below the {floor:.2}x floor"
                        ));
                    }
                }
                check.min_gain_ops = check.min_gain_ops.min(gain);
                check.summaries += 1;
            }
            "serve_frontier" => {
                doc.req_u64(&ctx, "batch_size")?;
                doc.req_f64(&ctx, "energy_uj")?;
                doc.req_f64(&ctx, "area_kge")?;
                check.frontier += 1;
            }
            _ => {} // foreign record kinds are fine in a shared journal
        }
    }
    if check.points == 0 {
        return Err("no serve_point records found".into());
    }
    if check.summaries == 0 {
        return Err("no serve_summary record found".into());
    }
    Ok(check)
}

/// What `validate_sla` found in a journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlaCheck {
    /// `serve_latency` records seen.
    pub latency_records: usize,
    /// `sla_summary` records seen.
    pub summaries: usize,
    /// Runs (fleet histogram + its shard histograms) cross-checked.
    pub runs: usize,
    /// Largest fleet p99 across summaries.
    pub max_p99: u64,
}

/// One parsed `serve_latency` line held for cross-checking.
struct LatencyLine {
    line: usize,
    /// The shard index; `None` for the fleet record.
    shard: Option<u64>,
    shards: u64,
    count: u64,
    hist: LatencyHist,
    percentiles: [(f64, u64); 4],
    min: u64,
    max: u64,
}

fn parse_sparse_hist(doc: &Json, ctx: &str) -> Result<LatencyHist, String> {
    let pairs = doc
        .get("hist_buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing hist_buckets array"))?;
    let mut sparse = Vec::with_capacity(pairs.len());
    for (i, pair) in pairs.iter().enumerate() {
        let p = pair
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{ctx}: bucket {i} is not an [index,count] pair"))?;
        let idx = p[0]
            .as_u64()
            .ok_or_else(|| format!("{ctx}: bucket {i} index not an integer"))?;
        let count = p[1]
            .as_u64()
            .ok_or_else(|| format!("{ctx}: bucket {i} count not an integer"))?;
        sparse.push((idx, count));
    }
    LatencyHist::from_sparse(&sparse).ok_or_else(|| format!("{ctx}: bucket index out of range"))
}

/// Validates an SLA journal (JSONL text): well-formed `serve_latency`
/// and `sla_summary` records, exact-count percentiles that recompute
/// from the serialized buckets, monotone percentile ladders, shard
/// histograms that merge into the fleet histogram bucket-for-bucket,
/// fleet totals equal to `accepted + rejected`, and — when `max_p99`
/// is given — every summary's fleet p99 at or below it.
pub fn validate_sla(text: &str, max_p99: Option<u64>) -> Result<SlaCheck, String> {
    let mut check = SlaCheck::default();
    // One run = one value of every field `push_config_fields` writes,
    // each compared exactly (64-bit seeds included).
    let mut runs: std::collections::BTreeMap<String, Vec<LatencyLine>> =
        std::collections::BTreeMap::new();
    let mut summaries: Vec<(String, usize, u64, u64, u64)> = Vec::new();
    for (n, _, doc) in json::records(text) {
        let doc = doc?;
        let kind = doc.kind().unwrap_or("");
        let ctx = format!("line {n} ({kind})");
        let run_key = |doc: &Json| -> Result<String, String> {
            let mut key = String::new();
            for field in CONFIG_FIELDS {
                let v = match doc.get(field) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::U64(u)) => u.to_string(),
                    Some(Json::I64(i)) => i.to_string(),
                    Some(Json::F64(f)) => f.to_string(),
                    Some(_) => return Err(format!("{ctx}: unreadable key {field:?}")),
                    None => return Err(format!("{ctx}: missing key {field:?}")),
                };
                key.push_str(&v);
                key.push('|');
            }
            Ok(key)
        };
        match kind {
            "serve_latency" => {
                let shard = match doc.req_str(&ctx, "scope")? {
                    "fleet" => None,
                    "shard" => Some(doc.req_u64(&ctx, "shard")?),
                    other => return Err(format!("{ctx}: unknown scope {other:?}")),
                };
                let hist = parse_sparse_hist(&doc, &ctx)?;
                let entry = LatencyLine {
                    line: n,
                    shard,
                    shards: doc.req_u64(&ctx, "shards")?,
                    count: doc.req_u64(&ctx, "count")?,
                    hist,
                    percentiles: [
                        (50.0, doc.req_u64(&ctx, "p50_cycles")?),
                        (95.0, doc.req_u64(&ctx, "p95_cycles")?),
                        (99.0, doc.req_u64(&ctx, "p99_cycles")?),
                        (99.9, doc.req_u64(&ctx, "p999_cycles")?),
                    ],
                    min: doc.req_u64(&ctx, "min_cycles")?,
                    max: doc.req_u64(&ctx, "max_cycles")?,
                };
                if entry.hist.count() != entry.count {
                    return Err(format!(
                        "{ctx}: serialized buckets sum to {} but count says {}",
                        entry.hist.count(),
                        entry.count
                    ));
                }
                if entry.min > entry.max {
                    return Err(format!("{ctx}: min above max"));
                }
                // Percentiles are bucket lower bounds, so the ladder
                // starts at 0 (p50 may sit below the exact min when
                // both land in one bucket) but must end under max.
                let mut prev = 0u64;
                for (p, v) in entry.percentiles {
                    if v < prev {
                        return Err(format!("{ctx}: percentile ladder not monotone at p{p}"));
                    }
                    let recomputed = entry.hist.percentile(p);
                    if recomputed != v {
                        return Err(format!(
                            "{ctx}: p{p} = {v} but the buckets say {recomputed}"
                        ));
                    }
                    prev = v;
                }
                if entry.max < prev {
                    return Err(format!("{ctx}: max below p999"));
                }
                runs.entry(run_key(&doc)?).or_default().push(entry);
                check.latency_records += 1;
            }
            "sla_summary" => {
                let accepted = doc.req_u64(&ctx, "accepted")?;
                let rejected = doc.req_u64(&ctx, "rejected")?;
                let p99 = doc.req_u64(&ctx, "p99_latency_cycles")?;
                let depth_max = doc.req_u64(&ctx, "queue_depth_max")?;
                let depth_mean = doc.req_f64(&ctx, "queue_depth_mean")?;
                if depth_mean > depth_max as f64 {
                    return Err(format!("{ctx}: mean queue depth exceeds the max"));
                }
                let shards = doc.req_u64(&ctx, "shards")?;
                let util = doc
                    .get("shard_utilization")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("{ctx}: missing shard_utilization array"))?;
                if util.len() as u64 != shards {
                    return Err(format!(
                        "{ctx}: {} utilization entries for {shards} shards",
                        util.len()
                    ));
                }
                for (s, u) in util.iter().enumerate() {
                    let u = u
                        .as_f64()
                        .ok_or_else(|| format!("{ctx}: non-numeric utilization"))?;
                    if !(0.0..=1.0).contains(&u) {
                        return Err(format!("{ctx}: shard {s} utilization {u} outside [0,1]"));
                    }
                }
                if let Some(ceiling) = max_p99 {
                    if p99 > ceiling {
                        return Err(format!(
                            "{ctx}: fleet p99 {p99} cycles above the {ceiling}-cycle ceiling"
                        ));
                    }
                }
                check.max_p99 = check.max_p99.max(p99);
                summaries.push((run_key(&doc)?, n, accepted, rejected, p99));
                check.summaries += 1;
            }
            _ => {} // foreign record kinds are fine in a shared journal
        }
    }

    // Cross-checks within each run: the shard records cover exactly
    // `0..shards`, each index once, and the fleet histogram is the
    // exact bucket-wise merge of the shard histograms.
    for (key, lines) in &runs {
        let fleet: Vec<&LatencyLine> = lines.iter().filter(|l| l.shard.is_none()).collect();
        let [fleet] = fleet[..] else {
            return Err(format!(
                "run {key:?}: expected exactly one fleet serve_latency record, found {}",
                fleet.len()
            ));
        };
        let shard_lines: Vec<(u64, &LatencyLine)> =
            lines.iter().filter_map(|l| Some((l.shard?, l))).collect();
        if shard_lines.len() as u64 != fleet.shards {
            return Err(format!(
                "run {key:?}: {} shard histograms for {} shards",
                shard_lines.len(),
                fleet.shards
            ));
        }
        let mut seen = vec![false; shard_lines.len()];
        for &(s, l) in &shard_lines {
            match usize::try_from(s).ok().and_then(|i| seen.get_mut(i)) {
                Some(slot @ false) => *slot = true,
                Some(true) => {
                    return Err(format!(
                        "line {}: shard {s} appears twice in run {key:?}",
                        l.line
                    ))
                }
                None => {
                    return Err(format!(
                        "line {}: shard {s} out of range for {} shards",
                        l.line, fleet.shards
                    ))
                }
            }
        }
        let mut merged = LatencyHist::new();
        for (_, l) in &shard_lines {
            merged.merge(&l.hist);
        }
        if merged != fleet.hist {
            return Err(format!(
                "run {key:?}: shard histograms do not merge into the fleet histogram \
                 (line {})",
                fleet.line
            ));
        }
        if merged.count() != fleet.count {
            return Err(format!(
                "run {key:?}: shard counts do not sum to the fleet count"
            ));
        }
        check.runs += 1;
    }
    for (key, n, accepted, rejected, p99) in &summaries {
        let Some(lines) = runs.get(key) else {
            return Err(format!(
                "line {n} (sla_summary): no serve_latency records for this run"
            ));
        };
        let fleet = lines
            .iter()
            .find(|l| l.shard.is_none())
            .expect("checked above");
        if accepted + rejected != fleet.count {
            return Err(format!(
                "line {n} (sla_summary): accepted + rejected = {} but the fleet \
                 histogram holds {} samples",
                accepted + rejected,
                fleet.count
            ));
        }
        if *p99 != fleet.hist.percentile(99.0) {
            return Err(format!(
                "line {n} (sla_summary): p99 disagrees with the fleet histogram"
            ));
        }
    }
    if check.runs == 0 {
        return Err("no serve_latency records found".into());
    }
    if check.summaries == 0 {
        return Err("no sla_summary record found".into());
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_service, ServeConfig};
    use ule_curves::params::CurveId;

    fn costs() -> Vec<SimCosts> {
        vec![
            SimCosts {
                arch: "baseline".into(),
                cycles: 1_000_000,
                energy_uj: 50.0,
                area_kge: 10.0,
            },
            SimCosts {
                arch: "isa_ext".into(),
                cycles: 400_000,
                energy_uj: 30.0,
                area_kge: 14.0,
            },
        ]
    }

    fn sweep(curve: CurveId) -> Vec<(crate::ServeOutcome, f64)> {
        let mut runs = Vec::new();
        let reference = run_service(&ServeConfig {
            requests: 32,
            batch_size: 1,
            shards: 2,
            seed: 9,
            ..ServeConfig::new(curve)
        });
        for batch in [1usize, 4, 16] {
            let outcome = if batch == 1 {
                reference.clone()
            } else {
                run_service(&ServeConfig {
                    batch_size: batch,
                    ..reference.config
                })
            };
            let scale = op_scale(&outcome, &reference);
            runs.push((outcome, scale));
        }
        runs
    }

    #[test]
    fn records_validate_and_scale_monotonically() {
        let runs = sweep(CurveId::P192);
        assert_eq!(runs[0].1, 1.0);
        // Shared-table amortization alone guarantees strict savings at
        // any batch size > 1; which of 4/16 wins depends on where the
        // dirty items land, so only compare each against the reference.
        assert!(runs[1].1 < 1.0, "batch 4 must scale below 1: {}", runs[1].1);
        assert!(
            runs[2].1 < 0.9,
            "batch 16 must cut ops by >10%: {}",
            runs[2].1
        );
        let costs = costs();
        let mut text = String::new();
        for (outcome, scale) in &runs {
            text.push_str(&serve_point_record(outcome, *scale, &costs[0]).to_json());
            text.push('\n');
        }
        text.push_str(&serve_summary_record(&runs).to_json());
        text.push('\n');
        let (front, frontier) = frontier_records(&costs, &runs);
        assert!(!front.is_empty());
        for r in &frontier {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        let check = validate_serve(&text, Some(1.05)).expect("journal validates");
        assert_eq!(check.points, 3);
        assert_eq!(check.summaries, 1);
        assert!(check.frontier >= 1);
        assert_eq!(check.mismatches, 0);
        assert!(check.min_gain_ops > 1.05);
    }

    #[test]
    fn frontier_prefers_batched_points_within_an_arch() {
        let runs = sweep(CurveId::P192);
        let (front, _) = frontier_records(&costs(), &runs);
        // Within one arch, area is constant and cycles/energy share
        // one scale factor, so only the cheapest batch size survives —
        // never the unbatched reference (ids 0 and runs.len()).
        assert!(!front.contains(0));
        assert!(!front.contains(runs.len()));
        for p in front.points() {
            assert_ne!(p.id % runs.len(), 0, "batch 1 cannot be on the frontier");
        }
    }

    #[test]
    fn validator_rejects_mismatches_and_weak_gains() {
        let runs = sweep(CurveId::P192);
        let good = format!(
            "{}\n{}\n",
            serve_point_record(&runs[0].0, runs[0].1, &costs()[0]).to_json(),
            serve_summary_record(&runs).to_json()
        );
        assert!(validate_serve(&good, None).is_ok());
        assert!(validate_serve(&good, Some(1e9)).is_err());
        let tampered = good.replace("\"mismatches\":0", "\"mismatches\":3");
        assert!(validate_serve(&tampered, None).is_err());
        assert!(validate_serve("", None).is_err());
        assert!(validate_serve("{\"record\":\"serve_point\"}\n", None).is_err());
    }

    fn sla_journal(outcome: &crate::ServeOutcome) -> String {
        let mut text = String::new();
        for r in serve_latency_records(outcome) {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        text.push_str(&sla_summary_record(outcome, 1.0, &costs()[0]).to_json());
        text.push('\n');
        text
    }

    #[test]
    fn sla_journal_validates_and_recomputes_from_buckets() {
        let outcome = run_service(&ServeConfig {
            requests: 48,
            batch_size: 8,
            shards: 3,
            seed: 9,
            ..ServeConfig::new(CurveId::P192)
        });
        let text = sla_journal(&outcome);
        let check = validate_sla(&text, None).expect("sla journal validates");
        assert_eq!(check.runs, 1);
        assert_eq!(check.latency_records, 1 + 3); // fleet + one per shard
        assert_eq!(check.summaries, 1);
        assert_eq!(check.max_p99, outcome.telemetry.fleet_hist.percentile(99.0));
        // The ceiling gate works in both directions.
        assert!(validate_sla(&text, Some(check.max_p99)).is_ok());
        assert!(validate_sla(&text, Some(check.max_p99 - 1)).is_err());
        // Rerun determinism: the serialized journal is byte-identical.
        let outcome2 = run_service(&outcome.config);
        assert_eq!(text, sla_journal(&outcome2));
    }

    #[test]
    fn sla_validator_rejects_tampered_journals() {
        let outcome = run_service(&ServeConfig {
            requests: 32,
            batch_size: 4,
            shards: 2,
            seed: 5,
            ..ServeConfig::new(CurveId::K163)
        });
        let good = sla_journal(&outcome);
        assert!(validate_sla(&good, None).is_ok());

        // A dropped shard histogram breaks the merge identity.
        let missing_shard: String = good
            .lines()
            .filter(|l| !l.contains("\"scope\":\"shard\",\"shard\":1"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_sla(&missing_shard, None).is_err());

        // An inflated count disagrees with the serialized buckets.
        let count = format!("\"count\":{}", outcome.telemetry.fleet_hist.count());
        let wrong = format!("\"count\":{}", outcome.telemetry.fleet_hist.count() + 1);
        let tampered = good.replacen(&count, &wrong, 1);
        assert!(validate_sla(&tampered, None).is_err());

        // A journal with latency records but no summary is incomplete.
        let no_summary: String = good
            .lines()
            .filter(|l| !l.contains("\"record\":\"sla_summary\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_sla(&no_summary, None).is_err());
        assert!(validate_sla("", None).is_err());
    }

    #[test]
    fn sla_shard_records_cover_each_index_once() {
        let outcome = run_service(&ServeConfig {
            requests: 32,
            batch_size: 4,
            shards: 4,
            seed: 5,
            ..ServeConfig::new(CurveId::P192)
        });
        let good = sla_journal(&outcome);
        assert!(validate_sla(&good, None).is_ok());
        for (from, to, why) in [
            ("\"shard\":1,", "\"shard\":1.5,", "an integer"),
            ("\"shard\":2,", "\"shard\":7,", "out of range"),
            ("\"shard\":2,", "\"shard\":1,", "appears twice"),
        ] {
            assert!(good.contains(from), "{from}");
            let err = validate_sla(&good.replacen(from, to, 1), None).unwrap_err();
            assert!(err.contains(why), "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn sla_runs_differing_only_in_arrival_rate_or_seed_stay_apart() {
        let base = ServeConfig {
            requests: 64,
            shards: 2,
            ..ServeConfig::new(CurveId::P256)
        };
        let pairs = [
            (0.25, 7, 0.5, 7),
            (0.25, 0x7D9C_5F0A_3B2E_1F04, 0.25, 0x7D9C_5F0A_3B2E_1F05),
        ];
        for (rate_a, seed_a, rate_b, seed_b) in pairs {
            let run = |arrival_rate, seed| {
                sla_journal(&run_service(&ServeConfig {
                    arrival_rate,
                    seed,
                    ..base
                }))
            };
            let text = run(rate_a, seed_a) + &run(rate_b, seed_b);
            let check = validate_sla(&text, None).expect("two runs validate");
            assert_eq!((check.runs, check.summaries), (2, 2));
        }
    }

    #[test]
    fn sla_summary_prices_latency_against_energy() {
        let outcome = run_service(&ServeConfig {
            requests: 32,
            batch_size: 8,
            shards: 2,
            seed: 7,
            ..ServeConfig::new(CurveId::P192)
        });
        let r = sla_summary_record(&outcome, 0.5, &costs()[0]).to_json();
        let doc = json::parse(&r).expect("record parses");
        let p99 = doc
            .get("p99_latency_cycles")
            .and_then(Json::as_u64)
            .unwrap();
        let energy = doc
            .get("energy_uj_per_million_requests")
            .and_then(Json::as_f64)
            .unwrap();
        let product = doc
            .get("p99_energy_product")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(p99, outcome.telemetry.fleet_hist.percentile(99.0));
        assert!((product - p99 as f64 * energy).abs() < 1e-6 * product.abs().max(1.0));
        let util = doc
            .get("shard_utilization")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(util.len(), 2);
    }
}
