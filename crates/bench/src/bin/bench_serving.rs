//! `bench_serving`: end-to-end serving throughput of the risk server,
//! with and without the verdict cache, on one seeded synthetic traffic
//! replay — the first point on the repo's `BENCH_*.json` trajectory and
//! the artifact the CI `perf-smoke` gate consumes.
//!
//! Methodology:
//!
//! 1. Train the paper model on a seeded traffic window and start two
//!    risk servers from clones of it: one cache-disabled, one with the
//!    sharded verdict cache enabled.
//! 2. Build a pool of `distinct` real submissions (from the same traffic
//!    generator) and a seeded replay sequence of `frames` draws over it;
//!    the pool size is chosen so the expected repeat fraction matches
//!    `--duplicate-ratio` — the paper's coarse-fingerprint premise is
//!    exactly that web-scale traffic repeats a tiny distinct population.
//! 3. Replay the *identical* sequence against both servers in pipelined
//!    windows of [`MAX_BATCH_PER_GUARD`] frames, recording per-frame
//!    latency per window.
//! 4. Assert the two verdict byte-streams are identical (the cache must
//!    be invisible except in speed), then emit `BENCH_serving.json` with
//!    p50/p99 µs, frames/sec, hit rate, and the cached/uncached speedup.
//! 5. Race the quantized fast path (`quantized: true`, cache disabled)
//!    on the same sequence: the fused fixed-point model must be
//!    byte-identical to the staged f64 path on the wire. End-to-end
//!    frames/sec for both legs land in the JSON, but the speedup gate
//!    is `assess_speedup`: the staged vs quantized cost of the assess
//!    stage itself, measured on the identical decoded replay sequence
//!    (best of interleaved passes, so scheduler noise cancels). The
//!    end-to-end ratio is Amdahl-diluted by the shared socket, framing,
//!    and decode path that quantization does not touch; the assess
//!    ratio is the claim the quantized representation actually makes,
//!    and `cargo xtask bench-check` gates it at ≥ 1.3x.
//!
//! `--smoke` selects the small deterministic configuration CI runs;
//! `cargo xtask bench-check` compares the emitted JSON against
//! `results/bench_baseline.json`.

use polygraph_bench::{train_paper_model, ExpOptions};
use polygraph_core::Detector;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{
    start_risk_server_with, RiskServerConfig, RiskServerHandle, MAX_BATCH_PER_GUARD,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;
use traffic::TrafficConfig;

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    /// Frames in the replay sequence.
    frames: usize,
    /// Target fraction of the sequence that repeats an earlier frame.
    duplicate_ratio: f64,
    /// Sessions in the model-training traffic window.
    sessions: usize,
    cache_shards: usize,
    cache_capacity: usize,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: TrafficConfig::paper_training().seed,
            frames: 20_000,
            duplicate_ratio: 0.9,
            sessions: 20_000,
            cache_shards: 8,
            cache_capacity: 8_192,
            out: Some("results/BENCH_serving.json".to_string()),
        }
    }
}

/// The CI smoke configuration: small enough for a runner (the full run
/// is well under a minute), large enough that the cached/uncached ratio
/// is stable — a replay shorter than ~50 ms measures scheduler noise,
/// not the server.
fn smoke_options() -> Options {
    Options {
        frames: 60_000,
        sessions: 6_000,
        ..Options::default()
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("bench_serving: {msg}");
    eprintln!(
        "usage: bench_serving [--smoke] [--seed S] [--frames N] [--duplicate-ratio R] \
         [--sessions N] [--cache-shards N] [--cache-capacity N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let mut opts = if args.iter().any(|a| a == "--smoke") {
        smoke_options()
    } else {
        Options::default()
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            usage_error(&format!("{flag} needs a value"));
        };
        match flag {
            "--seed" => opts.seed = parse(flag, value),
            "--frames" => opts.frames = parse(flag, value),
            "--duplicate-ratio" => {
                opts.duplicate_ratio = parse(flag, value);
                if !(0.0..1.0).contains(&opts.duplicate_ratio) {
                    usage_error("--duplicate-ratio must be in [0, 1)");
                }
            }
            "--sessions" => opts.sessions = parse(flag, value),
            "--cache-shards" => opts.cache_shards = parse(flag, value),
            "--cache-capacity" => opts.cache_capacity = parse(flag, value),
            "--out" => opts.out = Some(value.clone()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    opts
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("invalid {flag} value {value:?}")))
}

/// One measured replay: per-frame latencies (µs), total wall time, and
/// the raw verdict bytes for cross-run comparison.
struct RunResult {
    per_frame_us: Vec<f64>,
    elapsed_secs: f64,
    verdicts: Vec<u8>,
}

/// Windows the replay keeps in flight. Bounded well under the server's
/// default `shed_limit` (8 windows) so the pipeline can never trip
/// overload shedding — a shed verdict would break the byte-identity
/// gates, not just the timing.
const PIPELINE_DEPTH: usize = 4;

/// Replays `sequence` (indices into `pool`) against the server in a
/// sliding pipeline of [`MAX_BATCH_PER_GUARD`]-frame windows: up to
/// [`PIPELINE_DEPTH`] windows are written ahead of the reads, so the
/// socket round-trip overlaps with server-side work and the measured
/// rate is the server's processing throughput, not the wire's turn
/// latency. Steady-state window latency (the gap between consecutive
/// window completions) is divided evenly over the window's frames.
fn replay(server: &RiskServerHandle, pool: &[Vec<u8>], sequence: &[usize]) -> RunResult {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to bench server");
    stream.set_nodelay(true).expect("set nodelay");
    let windows: Vec<&[usize]> = sequence.chunks(MAX_BATCH_PER_GUARD).collect();
    let mut per_frame_us = Vec::with_capacity(sequence.len());
    let mut verdicts = Vec::with_capacity(sequence.len() * VERDICT_LEN);
    let mut wire = Vec::new();
    let mut write_window = |stream: &mut TcpStream, window: &[usize]| {
        wire.clear();
        for &idx in window {
            let frame = &pool[idx];
            wire.extend_from_slice(&(frame.len() as u16).to_le_bytes());
            wire.extend_from_slice(frame);
        }
        stream.write_all(&wire).expect("write window");
    };
    let started = Instant::now();
    for window in windows.iter().take(PIPELINE_DEPTH) {
        write_window(&mut stream, window);
    }
    let mut last_done = Instant::now();
    for (r, window) in windows.iter().enumerate() {
        let mut replies = vec![0u8; window.len() * VERDICT_LEN];
        stream
            .read_exact(&mut replies)
            .expect("read window verdicts");
        let now = Instant::now();
        let us = (now - last_done).as_secs_f64() * 1e6 / window.len() as f64;
        last_done = now;
        per_frame_us.extend(std::iter::repeat_n(us, window.len()));
        verdicts.extend_from_slice(&replies);
        if let Some(next) = windows.get(r + PIPELINE_DEPTH) {
            write_window(&mut stream, next);
        }
    }
    RunResult {
        per_frame_us,
        elapsed_secs: started.elapsed().as_secs_f64(),
        verdicts,
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn run_stats(result: &RunResult) -> (f64, f64, f64) {
    let mut sorted = result.per_frame_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let fps = result.per_frame_us.len() as f64 / result.elapsed_secs.max(1e-9);
    (fps, percentile(&sorted, 0.50), percentile(&sorted, 0.99))
}

fn main() {
    let opts = parse_options();
    println!(
        "bench_serving: seed {:#x}, {} frames, duplicate ratio {:.2}, {} training sessions",
        opts.seed, opts.frames, opts.duplicate_ratio, opts.sessions
    );

    // One model, two servers from clones of it.
    let (model, _data) = train_paper_model(ExpOptions {
        sessions: opts.sessions,
        seed: opts.seed,
    });

    // The submission pool: `distinct` real generated sessions, encoded
    // once. Pool size ≈ frames·(1 − duplicate_ratio) so uniform draws
    // land on the requested repeat fraction.
    let distinct = ((opts.frames as f64 * (1.0 - opts.duplicate_ratio)).round() as usize)
        .clamp(1, opts.frames.max(1));
    let traffic_config = TrafficConfig::paper_training()
        .with_sessions(distinct)
        .with_seed(opts.seed.wrapping_add(1));
    let replay_traffic = traffic::generate(&fingerprint::FeatureSet::table8(), &traffic_config);
    let pool: Vec<Vec<u8>> = replay_traffic
        .sessions
        .iter()
        .map(|s| {
            let sub = fingerprint::Submission {
                session_id: s.session_id,
                user_agent: s.claimed.to_ua_string(),
                values: s.values.clone(),
            };
            fingerprint::encode_submission(&sub)
                .expect("generated submission encodes")
                .to_vec()
        })
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0xBE9C);
    let sequence: Vec<usize> = (0..opts.frames)
        .map(|_| rng.gen_range(0..pool.len()))
        .collect();

    let uncached_config = RiskServerConfig {
        cache_capacity: 0,
        ..Default::default()
    };
    let cached_config = RiskServerConfig {
        cache_shards: opts.cache_shards,
        cache_capacity: opts.cache_capacity,
        ..Default::default()
    };

    let uncached_server =
        start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), uncached_config)
            .expect("start uncached server");
    let uncached = replay(&uncached_server, &pool, &sequence);
    uncached_server.shutdown();

    let cached_server =
        start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), cached_config)
            .expect("start cached server");
    let cached = replay(&cached_server, &pool, &sequence);
    let stats = cached_server.stats();
    cached_server.shutdown();

    // The quantized leg: same model, same sequence, cache disabled, but
    // the detector is compiled to the fused fixed-point fast path at
    // startup. Only the uncached assess work changes, so the ratio to
    // the uncached leg isolates the quantization speedup.
    let quant_config = RiskServerConfig {
        cache_capacity: 0,
        quantized: true,
        ..Default::default()
    };
    let quant_server =
        start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), quant_config)
            .expect("start quantized server");
    let quant = replay(&quant_server, &pool, &sequence);
    quant_server.shutdown();

    // The assess-stage microbench behind `assess_speedup`: the exact
    // replayed sequence, already decoded, pushed through both detectors'
    // batch entry point. Passes are interleaved and each leg keeps its
    // best pass, so a scheduler hiccup hits one pass, not one leg.
    let decoded: Vec<(Vec<f64>, browser_engine::UserAgent)> = replay_traffic
        .sessions
        .iter()
        .map(|s| (s.values.iter().map(|&v| f64::from(v)).collect(), s.claimed))
        .collect();
    let assess_input: Vec<(Vec<f64>, browser_engine::UserAgent)> =
        sequence.iter().map(|&idx| decoded[idx].clone()).collect();
    let staged_detector = Detector::new(model.clone());
    let mut quant_detector = Detector::new(model);
    quant_detector
        .quantize()
        .expect("paper model compiles to the quantized form");
    let time_assess = |detector: &Detector| {
        let t0 = Instant::now();
        let verdicts = detector.assess_many(&assess_input);
        let elapsed = t0.elapsed().as_secs_f64();
        std::hint::black_box(verdicts);
        elapsed
    };
    // Warm both paths once, then keep the best of three passes each.
    time_assess(&staged_detector);
    time_assess(&quant_detector);
    let mut staged_secs = f64::INFINITY;
    let mut quant_secs = f64::INFINITY;
    for _ in 0..3 {
        staged_secs = staged_secs.min(time_assess(&staged_detector));
        quant_secs = quant_secs.min(time_assess(&quant_detector));
    }
    let assess_staged_us = staged_secs * 1e6 / assess_input.len() as f64;
    let assess_quant_us = quant_secs * 1e6 / assess_input.len() as f64;
    let assess_speedup = staged_secs / quant_secs.max(1e-12);

    // The determinism gate: the cache must change nothing but latency.
    assert_eq!(
        uncached.verdicts, cached.verdicts,
        "cached and uncached replays must produce identical verdict streams"
    );
    // And the quantization gate: the fixed-point fast path must change
    // arithmetic, never decisions.
    assert_eq!(
        uncached.verdicts, quant.verdicts,
        "quantized and staged f64 paths must produce identical verdict streams"
    );

    let (fps_u, p50_u, p99_u) = run_stats(&uncached);
    let (fps_c, p50_c, p99_c) = run_stats(&cached);
    let (fps_q, p50_q, p99_q) = run_stats(&quant);
    let lookups = stats.cache_hits + stats.cache_misses;
    let hit_rate = if lookups > 0 {
        stats.cache_hits as f64 / lookups as f64
    } else {
        0.0
    };
    let speedup = fps_c / fps_u.max(1e-9);

    println!("  uncached: {fps_u:>10.0} frames/s   p50 {p50_u:>7.1} µs   p99 {p99_u:>7.1} µs");
    println!(
        "  cached:   {fps_c:>10.0} frames/s   p50 {p50_c:>7.1} µs   p99 {p99_c:>7.1} µs   \
         hit rate {:.3}   speedup {speedup:.2}x",
        hit_rate
    );
    println!(
        "  quant:    {fps_q:>10.0} frames/s   p50 {p50_q:>7.1} µs   p99 {p99_q:>7.1} µs   \
         vs uncached {:.2}x   assess {assess_quant_us:.3} µs vs {assess_staged_us:.3} µs \
         ({assess_speedup:.2}x)",
        fps_q / fps_u.max(1e-9)
    );

    let json = serde_json::json!({
        "schema": "polygraph.bench_serving.v1",
        "seed": opts.seed,
        "frames": opts.frames as u64,
        "distinct": distinct as u64,
        "duplicate_ratio": opts.duplicate_ratio,
        "window": MAX_BATCH_PER_GUARD as u64,
        "training_sessions": opts.sessions as u64,
        "verdicts_identical": true,
        "uncached": {
            "frames_per_sec": fps_u,
            "p50_us": p50_u,
            "p99_us": p99_u,
        },
        "cached": {
            "cache_shards": opts.cache_shards as u64,
            "cache_capacity": opts.cache_capacity as u64,
            "frames_per_sec": fps_c,
            "p50_us": p50_c,
            "p99_us": p99_c,
            "hit_rate": hit_rate,
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
            "evictions": stats.cache_evictions,
        },
        "quant": {
            "frames_per_sec": fps_q,
            "p50_us": p50_q,
            "p99_us": p99_q,
            "verdicts_identical": true,
            "vs_uncached": fps_q / fps_u.max(1e-9),
            "assess_staged_us": assess_staged_us,
            "assess_quant_us": assess_quant_us,
            "assess_speedup": assess_speedup,
        },
        "speedup": speedup,
    });
    let rendered = serde_json::to_string_pretty(&json).expect("render bench json");
    if let Some(path) = &opts.out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
        std::fs::write(path, rendered + "\n").expect("write bench json");
        println!("  wrote {path}");
    } else {
        println!("{rendered}");
    }
}
