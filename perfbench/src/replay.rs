//! The per-layer replay: the workload's own frames, cut into the batch
//! shape the live server saw, pushed through the same public calls the
//! server's batch path makes, with a span around each call.
//!
//! The server runs, per batch: frame split, a cache lookup per frame
//! (key hash, lookup, a clock read and histogram record per hit), decode
//! and user-agent parse of the misses, one `assess_many` on the
//! quantized detector, a cache insert per assessed miss (hashing the key
//! again), an occupancy scan, and a verdict encode per frame. The replay
//! makes the same calls in the same order; it also times the unquantized
//! `assess_many` on the same misses, which the live path does not run.

use crate::harness::repeat_share;
use crate::trace::{self_time_by_name, Tracer};
use crate::world::{expected_verdict, FramePool, CACHE_CAPACITY, CACHE_SHARDS};
use browser_engine::UserAgent;
use fingerprint::{decode_submission_view, submission_cache_key};
use polygraph_cache::{Lookup, VerdictCache};
use polygraph_core::{Detector, TrainedModel};
use polygraph_obs::{Clock, Histogram, MonotonicClock};
use polygraph_service::framing::FrameAccumulator;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{Verdict, VerdictStatus, MAX_BATCH_PER_GUARD};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Replay passes: the first warms the cache, the rest are measured and
/// each stage reports its median pass.
const PASSES: usize = 4;

/// The stages on the live path, in server order. `detect.staged` is
/// timed too but is not on the live path.
pub const LIVE_STAGES: [&str; 10] = [
    "framing",
    "wire.cache_key",
    "cache.lookup",
    "obs.record",
    "wire.decode",
    "ua.parse",
    "detect.assess",
    "cache.insert",
    "cache.occupancy",
    "proto.encode",
];

/// Median-pass self time of one stage, and the calls it made per pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    pub self_ns: f64,
    pub calls: u64,
}

impl Stage {
    /// Self time per call, or 0 when the stage made no call.
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

pub struct Replay {
    pub frames: u64,
    pub stages: BTreeMap<&'static str, Stage>,
    /// Cost of an empty span, subtracted from every span before summing.
    pub span_cost_ns: f64,
    /// Share of replayed frames whose user-agent string repeats an
    /// earlier frame's.
    pub ua_repeat_share: f64,
    /// Share of replayed frames the quantized model cannot certify.
    pub quant_fallback_ratio: f64,
    /// Spans of the last measured pass.
    pub tracer: Tracer,
}

impl Replay {
    pub fn stage(&self, name: &str) -> Stage {
        self.stages.get(name).copied().unwrap_or_default()
    }

    /// A stage's self time per replayed frame, in µs.
    pub fn per_frame_us(&self, name: &str) -> f64 {
        self.stage(name).self_ns / self.frames.max(1) as f64 / 1e3
    }
}

/// Replays `order` (pool indices) in batches of `batch` frames against a
/// fresh cache with the served shape. Every replayed verdict is checked
/// against `reference`.
pub fn replay(
    model: &TrainedModel,
    pool: &FramePool,
    order: &[u32],
    batch: usize,
    reference: &[[u8; VERDICT_LEN]],
) -> Result<Replay, String> {
    let mut quantized = Detector::new(model.clone());
    quantized.quantize().map_err(|e| e.to_string())?;
    let staged = Detector::new(model.clone());
    let cache: VerdictCache<Verdict> = VerdictCache::new(CACHE_SHARDS, CACHE_CAPACITY);
    let clock = MonotonicClock::new();
    let histogram = Histogram::default();
    let span_cost_ns = empty_span_cost();

    let mut per_pass: BTreeMap<&'static str, Vec<Stage>> = BTreeMap::new();
    let mut last = Tracer::new(Instant::now());
    for pass in 0..PASSES {
        let mut t = Tracer::new(Instant::now());
        let mut calls: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (b, chunk) in order.chunks(batch).enumerate() {
            let id = b as u64;
            let wire: Vec<u8> = chunk
                .iter()
                .flat_map(|&i| pool.wire(i as usize))
                .copied()
                .collect();
            let start = t.now();
            let root = Some(t.record("batch", start, start, None, id));
            let (frames, oversize) = t.time("framing", root, id, || {
                let mut acc = FrameAccumulator::new();
                for piece in wire.chunks(4096) {
                    acc.extend(piece);
                }
                acc.split(MAX_BATCH_PER_GUARD)
            });
            if oversize || frames.len() != chunk.len() {
                return Err("replay framing split the batch differently".into());
            }
            let keys: Vec<Option<u64>> = t.time("wire.cache_key", root, id, || {
                frames.iter().map(|f| submission_cache_key(f)).collect()
            });
            let mut verdicts: Vec<Option<Verdict>> = t.time("cache.lookup", root, id, || {
                keys.iter()
                    .map(|k| match k.map(|k| cache.lookup(k)) {
                        Some(Lookup::Hit(v)) => Some(v),
                        _ => None,
                    })
                    .collect()
            });
            let hits = verdicts.iter().filter(|v| v.is_some()).count();
            t.time("obs.record", root, id, || {
                for _ in 0..hits {
                    let at = clock.now_micros();
                    histogram.record(clock.now_micros().saturating_sub(at));
                }
            });
            let misses: Vec<usize> = (0..frames.len())
                .filter(|&j| verdicts[j].is_none())
                .collect();
            *calls.entry("framing").or_default() += frames.len() as u64;
            *calls.entry("wire.cache_key").or_default() += (frames.len() + misses.len()) as u64;
            *calls.entry("cache.lookup").or_default() += frames.len() as u64;
            *calls.entry("obs.record").or_default() += hits as u64;
            if !misses.is_empty() {
                let rows: Vec<Option<(&str, Vec<f64>)>> = t.time("wire.decode", root, id, || {
                    misses
                        .iter()
                        .map(|&j| {
                            let view = decode_submission_view(&frames[j]).ok()?;
                            Some((
                                view.user_agent(),
                                view.values_u32().map(f64::from).collect(),
                            ))
                        })
                        .collect()
                });
                let uas: Vec<Option<UserAgent>> = t.time("ua.parse", root, id, || {
                    rows.iter()
                        .map(|r| r.as_ref().and_then(|(ua, _)| ua.parse().ok()))
                        .collect()
                });
                let sessions: Vec<(Vec<f64>, UserAgent)> = rows
                    .into_iter()
                    .zip(uas)
                    .map(|(row, ua)| match (row, ua) {
                        (Some((_, values)), Some(ua)) => Ok((values, ua)),
                        _ => Err("a replayed frame failed to decode".to_string()),
                    })
                    .collect::<Result<_, _>>()?;
                let epoch = cache.epoch();
                let assessed = t.time("detect.assess", root, id, || {
                    quantized.assess_many(&sessions)
                });
                let reference_path =
                    t.time("detect.staged", root, id, || staged.assess_many(&sessions));
                if assessed != reference_path {
                    return Err("quantized and staged assess_many disagree".into());
                }
                let fresh: Vec<Verdict> = assessed.iter().map(expected_verdict).collect();
                let insert_keys: Vec<Option<u64>> = t.time("wire.cache_key", root, id, || {
                    misses
                        .iter()
                        .map(|&j| submission_cache_key(&frames[j]))
                        .collect()
                });
                t.time("cache.insert", root, id, || {
                    for (key, v) in insert_keys.iter().zip(&fresh) {
                        if let (Some(key), VerdictStatus::Assessed) = (key, v.status) {
                            black_box(cache.insert(*key, epoch, *v));
                        }
                    }
                });
                for (&j, v) in misses.iter().zip(fresh) {
                    verdicts[j] = Some(v);
                }
                for name in ["wire.decode", "ua.parse", "cache.insert"] {
                    *calls.entry(name).or_default() += misses.len() as u64;
                }
                for name in ["detect.assess", "detect.staged"] {
                    *calls.entry(name).or_default() += 1;
                }
            }
            t.time("cache.occupancy", root, id, || {
                black_box(cache.current_occupancy())
            });
            *calls.entry("cache.occupancy").or_default() += 1;
            let out = t.time("proto.encode", root, id, || {
                let mut out = Vec::with_capacity(frames.len() * VERDICT_LEN);
                for v in verdicts.iter().flatten() {
                    out.extend_from_slice(&v.encode());
                }
                out
            });
            *calls.entry("proto.encode").or_default() += frames.len() as u64;
            let end = t.now();
            if let Some(root) = root {
                t.set_end(root, end);
            }
            for (k, got) in out.chunks_exact(VERDICT_LEN).enumerate() {
                if got != reference[chunk[k] as usize] {
                    return Err(format!(
                        "replayed verdict for pool frame {} differs from the reference",
                        chunk[k]
                    ));
                }
            }
        }
        if pass == 0 {
            continue;
        }
        for (name, (total, spans)) in self_time_by_name(t.spans()) {
            let self_ns = (total as f64 - spans as f64 * span_cost_ns).max(0.0);
            let calls = calls.get(name).copied().unwrap_or(0);
            per_pass
                .entry(name)
                .or_default()
                .push(Stage { self_ns, calls });
        }
        last = t;
    }

    let stages = per_pass
        .into_iter()
        .map(|(name, mut passes)| {
            passes.sort_by(|a, b| a.self_ns.total_cmp(&b.self_ns));
            (name, passes[passes.len() / 2])
        })
        .collect();
    Ok(Replay {
        frames: order.len() as u64,
        stages,
        span_cost_ns,
        ua_repeat_share: repeat_share(order.iter().map(|&i| {
            decode_submission_view(pool.payload(i as usize))
                .ok()
                .map(|view| view.user_agent())
        })),
        quant_fallback_ratio: quant_fallback_ratio(model, pool, order)?,
        tracer: last,
    })
}

/// Median duration of an empty span.
fn empty_span_cost() -> f64 {
    let mut t = Tracer::new(Instant::now());
    for _ in 0..20_000 {
        t.time("empty", None, 0, || ());
    }
    let mut d: Vec<u64> = t.spans().iter().map(|s| s.end_ns - s.start_ns).collect();
    d.sort_unstable();
    d[d.len() / 2] as f64
}

/// Share of the replayed frames' rows for which
/// `QuantModel::predict_row` returns `None` (the staged fallback).
fn quant_fallback_ratio(
    model: &TrainedModel,
    pool: &FramePool,
    order: &[u32],
) -> Result<f64, String> {
    let quant = model.quantize().map_err(|e| e.to_string())?;
    let mut scratch = quant.scratch();
    let mut fallbacks = 0usize;
    for &i in order {
        let view = decode_submission_view(pool.payload(i as usize)).map_err(|e| e.to_string())?;
        let row: Vec<f64> = view.values_u32().map(f64::from).collect();
        if quant
            .predict_row(&row, &mut scratch)
            .map_err(|e| e.to_string())?
            .is_none()
        {
            fallbacks += 1;
        }
    }
    Ok(fallbacks as f64 / order.len().max(1) as f64)
}
