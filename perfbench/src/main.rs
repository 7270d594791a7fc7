//! `polygraph-perfbench`: the repository's benchmark. One run serves one
//! seeded workload from a live in-process risk server and prints, as its
//! last line, a JSON summary: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload login-paced --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

mod churn;
mod harness;
mod host;
mod load;
mod replay;
mod trace;
mod world;

use churn::{Retrainer, CYCLE_FRAMES};
use harness::{budget, derive_seed, median, parse_options, summarize, Metric, Options, Report};
use harness::{Summary, Workload};
use load::{flood, is_degraded, open_loop, Flood, OpenLoop, FLOOD_DEPTH};
use polygraph_core::{Detector, TrainedModel};
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{
    start_risk_server_with, RiskServerConfig, RiskServerHandle, RiskServerStats,
    MAX_BATCH_PER_GUARD,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};
use trace::Tracer;
use world::FramePool;

/// Set-ups per run, before and after the load; `setup_s` is their
/// median. Set-up is CPU-bound, and on a shared 2-vCPU virtual machine
/// single-thread speed drifts by about a fifth over seconds, so the
/// repetitions are spread over the run rather than bunched.
const SETUP_REPS_BEFORE: usize = 3;
const SETUP_REPS_AFTER: usize = 3;
/// Open-loop arrival rate: well below the ~25k/s one connection answers
/// ping-pong, so the queue stays short unless the server stalls. At this
/// rate a stall must last about 50 ms before the backlog passes the
/// server's 256-frame shed limit; hypervisor stalls of 30 ms shed frames
/// at 10 000/s on a shared 2-vCPU virtual machine.
const PACED_RATE: f64 = 5_000.0;
/// Load before measuring, so the cache fills and lazy set-up finishes.
const WARMUP: Duration = Duration::from_millis(500);
/// Length of the cyclic draw sequence a flood walks.
const FLOOD_SEQUENCE: usize = 1 << 20;
/// A retrain cycle starts every period beside the load. In
/// `model-churn` it publishes to the serving server; elsewhere to an idle
/// second server, so every workload measures `retrain_ms` across its
/// whole run while only `model-churn` swaps models under load.
const RETRAIN_PERIOD: Duration = Duration::from_millis(500);
/// Frames the per-layer replay pushes through each pass.
const REPLAY_PACED: usize = 16_384;
const REPLAY_FLOOD: usize = 65_536;
/// Spans written out per trace file.
const TRACE_FILE_SPANS: usize = 300_000;

/// Independent input streams derived from the workload seed.
const STREAM_POOL: u64 = 1;
const STREAM_SCHEDULE: u64 = 2;
const STREAM_SEQUENCE: u64 = 3;
const STREAM_RESERVOIR: u64 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <login-paced|flood-unique|flood-repeat|model-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report.to_json() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: verdicts differ from the reference detector");
        ExitCode::FAILURE
    }
}

/// The served configuration every workload uses: the default threaded
/// core, the verdict cache on, the quantized fast path on.
fn server_config() -> RiskServerConfig {
    RiskServerConfig {
        cache_shards: world::CACHE_SHARDS,
        cache_capacity: world::CACHE_CAPACITY,
        quantized: true,
        ..RiskServerConfig::default()
    }
}

/// The generated traffic of one run. Open-loop workloads get one
/// (schedule, sequence) pair per load phase; floods walk one cyclic
/// sequence.
struct Traffic {
    pool: FramePool,
    phases: Vec<(Vec<u64>, Vec<u32>)>,
    flood_sequence: Vec<u32>,
}

fn generate_traffic(opts: &Options, phase_len: Duration, phases: usize) -> Result<Traffic, String> {
    let pool = world::pool_for(opts.workload, derive_seed(opts.seed, STREAM_POOL))?;
    let mut traffic = Traffic {
        pool,
        phases: Vec::new(),
        flood_sequence: Vec::new(),
    };
    if opts.workload.is_open_loop() {
        for phase in 0..phases as u64 {
            let span = (WARMUP + phase_len).as_nanos() as u64;
            let schedule = harness::poisson_schedule(
                derive_seed(opts.seed, STREAM_SCHEDULE + 16 * phase),
                PACED_RATE,
                span,
            );
            let sequence = world::uniform_sequence(
                derive_seed(opts.seed, STREAM_SEQUENCE + 16 * phase),
                traffic.pool.len(),
                schedule.len(),
            );
            traffic.phases.push((schedule, sequence));
        }
    } else {
        traffic.flood_sequence = world::uniform_sequence(
            derive_seed(opts.seed, STREAM_SEQUENCE),
            traffic.pool.len(),
            FLOOD_SEQUENCE,
        );
    }
    Ok(traffic)
}

/// Model versions published during a run, and the reference verdicts of
/// each (index 0 is the boot model).
struct Versions {
    published: AtomicU64,
    tables: Mutex<Vec<Vec<[u8; VERDICT_LEN]>>>,
}

/// What one load phase measured.
struct Phase {
    /// Per request (open loop) or per window (flood), in µs.
    latency: Summary,
    throughput_fps: f64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// Generator lateness in µs (open loop only).
    late: Option<Summary>,
    inflight_p99: f64,
    stats: RiskServerStats,
    tracer: Option<Tracer>,
}

/// One timed set-up: traffic generation, model fit and server start.
fn set_up(
    opts: &Options,
    phase_len: Duration,
    phases: usize,
) -> Result<(f64, TrainedModel, Traffic, RiskServerHandle), String> {
    let t = Instant::now();
    let model = world::fit_model()?;
    let traffic = generate_traffic(opts, phase_len, phases)?;
    let server =
        start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), server_config())
            .map_err(|e| format!("start server: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), model, traffic, server))
}

fn run(opts: &Options) -> Result<Report, String> {
    let workload = opts.workload;
    // With tracing, the load runs twice at half length: untraced, then
    // traced, so the difference is the tracing overhead.
    let phases = if opts.trace { 2 } else { 1 };
    let phase_len = Duration::from_secs(opts.seconds) / phases as u32;

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS_BEFORE {
        let (secs, model, traffic, server) = set_up(opts, phase_len, phases)?;
        setup_s.push(secs);
        if let Some((_, _, old)) = built.replace((model, traffic, server)) {
            old.shutdown();
        }
    }
    let (model, traffic, server) = built.ok_or("no set-up ran")?;
    let pool = &traffic.pool;
    let reference = world::reference_verdicts(&model, pool);
    let versions = Versions {
        published: AtomicU64::new(0),
        tables: Mutex::new(vec![reference.clone()]),
    };
    let idle = (workload != Workload::ModelChurn)
        .then(|| {
            start_risk_server_with("127.0.0.1:0", Detector::new(model.clone()), server_config())
        })
        .transpose()
        .map_err(|e| format!("start idle server: {e}"))?;
    let mut retrainer = Retrainer::new(model.clone(), derive_seed(opts.seed, STREAM_RESERVOIR))?;

    let ticks_before = host::cpu_ticks();
    let mut measured = Vec::with_capacity(phases);
    for phase in 0..phases {
        let traced = opts.trace && phase == 1;
        let retrain = RetrainSide {
            retrainer: &mut retrainer,
            target: idle.as_ref().unwrap_or(&server),
            versions: idle.is_none().then_some(&versions),
        };
        let result = if workload.is_open_loop() {
            paced_phase(&server, &traffic, phase, traced, retrain, &versions)
        } else {
            flood_phase(&server, &traffic, &reference, phase_len, traced, retrain)
        };
        measured.push(result?);
    }
    let ticks_after = host::cpu_ticks();
    let steal = match (ticks_before, ticks_after) {
        (Some(a), Some(b)) => host::steal_frac(a, b),
        _ => 0.0,
    };
    for _ in 0..SETUP_REPS_AFTER {
        let (secs, _, _, extra) = set_up(opts, phase_len, phases)?;
        setup_s.push(secs);
        extra.shutdown();
    }
    let times = &retrainer.times;
    if times.retrain_ms.is_empty() {
        return Err("no retrain cycle completed; run longer".into());
    }
    let rss = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let attempted: u64 = measured.iter().map(|p| p.attempted).sum();
    let failed: u64 = measured.iter().map(|p| p.failed).sum();
    let mismatches: u64 = measured.iter().map(|p| p.mismatches).sum();
    let base = &measured[0];
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (threads available: {})",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "  latency samples {} (p50 {:.2} us, p99 {:.2} us, {} samples beyond the p99); \
         attempted {attempted}, failed {failed}, mismatched {mismatches}",
        base.latency.samples, base.latency.p50, base.latency.p99, base.latency.p99_beyond
    );
    println!(
        "  generator lateness p50 {:.2} us p99 {:.2} us; host steal {:.4}; retrain cycles {}",
        base.late.map_or(0.0, |l| l.p50),
        base.late.map_or(0.0, |l| l.p99),
        steal,
        times.retrain_ms.len()
    );

    let metrics = if opts.trace {
        let (order, batch) = replay_order(&traffic);
        let replay = replay::replay(&model, pool, order, batch, &reference)?;
        let key_share = harness::repeat_share(
            order
                .iter()
                .map(|&i| fingerprint::submission_cache_key(pool.payload(i as usize))),
        );
        let layers = layer_metrics(
            &measured, &replay, key_share, times, steal, attempted, failed,
        );
        write_traces(opts, &measured, &replay);
        layers
    } else {
        vec![
            metric("latency_p50_us", base.latency.p50, "us"),
            metric("throughput_fps", base.throughput_fps, "1/s"),
            metric("retrain_ms", median(&times.retrain_ms), "ms"),
            metric("setup_s", median(&setup_s), "s"),
            metric("rss_peak_mb", rss, "MiB"),
        ]
    };
    for m in &metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    server.shutdown();
    if let Some(idle) = idle {
        idle.shutdown();
    }
    Ok(Report {
        correct: mismatches == 0,
        attempted,
        failed,
        metrics,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Counter deltas between two stats snapshots.
fn stats_delta(before: &RiskServerStats, after: &RiskServerStats) -> RiskServerStats {
    RiskServerStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        cache_stale_epoch: after.cache_stale_epoch - before.cache_stale_epoch,
        batches: after.batches - before.batches,
        shed: after.shed - before.shed,
        ..RiskServerStats::default()
    }
}

fn paced_phase(
    server: &RiskServerHandle,
    traffic: &Traffic,
    phase: usize,
    trace: bool,
    retrain: RetrainSide<'_>,
    versions: &Versions,
) -> Result<Phase, String> {
    let (schedule, sequence) = &traffic.phases[phase];
    let pool = &traffic.pool;
    let sent = AtomicUsize::new(0);
    let before = server.stats();
    let run = beside_retrain(retrain, pool, sequence, &sent, || {
        open_loop(&OpenLoop {
            addr: server.local_addr(),
            pool,
            sequence,
            schedule,
            version: &versions.published,
            sent: &sent,
            trace,
        })
    })?;
    let stats = stats_delta(&before, &server.stats());

    let tables = versions
        .tables
        .lock()
        .map_err(|_| "reference table lock poisoned")?;
    let mut failed = (schedule.len() - run.verdicts.len()) as u64;
    let mut mismatches = 0;
    for (i, got) in run.verdicts.iter().enumerate() {
        let idx = sequence[i] as usize;
        let newest = (run.version_read[i] as usize + 1).min(tables.len() - 1);
        let oldest = (run.version_sent[i] as usize).min(newest);
        if (oldest..=newest).any(|v| &tables[v][idx] == got) {
            continue;
        }
        failed += 1;
        if !is_degraded(got) {
            mismatches += 1;
        }
    }
    if let Some(e) = &run.io_error {
        eprintln!("perfbench: open loop stopped early: {e}");
    }

    let warm = WARMUP.as_nanos() as u64;
    let measured: Vec<usize> = (0..run.verdicts.len())
        .filter(|&i| schedule[i] >= warm)
        .collect();
    let latency: Vec<f64> = measured
        .iter()
        .map(|&i| (run.read_at[i] - schedule[i]) as f64 / 1e3)
        .collect();
    let late: Vec<f64> = measured
        .iter()
        .map(|&i| (run.sent_at[i] - schedule[i]) as f64 / 1e3)
        .collect();
    let inflight: Vec<f64> = measured
        .iter()
        .map(|&i| f64::from(run.inflight[i]))
        .collect();
    let last_read = measured
        .iter()
        .map(|&i| run.read_at[i])
        .max()
        .unwrap_or(warm);
    let span_s = (last_read.saturating_sub(warm)) as f64 / 1e9;
    Ok(Phase {
        latency: summarize(&latency)?,
        throughput_fps: measured.len() as f64 / span_s.max(1e-9),
        attempted: schedule.len() as u64,
        failed,
        mismatches,
        late: Some(summarize(&late)?),
        inflight_p99: summarize(&inflight)?.p99,
        stats,
        tracer: run.tracer,
    })
}

/// The retrain thread's target: where it publishes, and the reference
/// tables to extend when that is the serving server.
struct RetrainSide<'a> {
    retrainer: &'a mut Retrainer,
    target: &'a RiskServerHandle,
    versions: Option<&'a Versions>,
}

/// Runs `load` on this thread while a second thread repeats retrain
/// cycles: cycle `c` starts no earlier than `(c+1)·RETRAIN_PERIOD` into
/// the phase and once positions `[c·CYCLE_FRAMES, (c+1)·CYCLE_FRAMES)`
/// of `order` have been sent, feeds those frames to the reservoir,
/// refits and publishes.
fn beside_retrain<T>(
    side: RetrainSide<'_>,
    pool: &FramePool,
    order: &[u32],
    sent: &AtomicUsize,
    load: impl FnOnce() -> T,
) -> Result<T, String> {
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let retrain = s.spawn(|| -> Result<(), String> {
            let start = Instant::now();
            for cycle in 0.. {
                let (from, to) = (cycle * CYCLE_FRAMES, (cycle + 1) * CYCLE_FRAMES);
                let due = RETRAIN_PERIOD * (cycle as u32 + 1);
                while start.elapsed() < due || sent.load(Ordering::SeqCst) < to {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                let frames = (from..to).map(|k| pool.payload(order[k % order.len()] as usize));
                let model = side.retrainer.cycle(side.target, frames)?;
                if let Some(versions) = side.versions {
                    versions.published.fetch_add(1, Ordering::SeqCst);
                    let table = world::reference_verdicts(&model, pool);
                    versions
                        .tables
                        .lock()
                        .map_err(|_| "reference table lock poisoned")?
                        .push(table);
                }
            }
            Ok(())
        });
        let out = load();
        stop.store(true, Ordering::SeqCst);
        let retrained = retrain
            .join()
            .unwrap_or_else(|_| Err("retrain thread panicked".into()));
        retrained.map(|()| out)
    })
}

fn flood_phase(
    server: &RiskServerHandle,
    traffic: &Traffic,
    reference: &[[u8; VERDICT_LEN]],
    measure: Duration,
    trace: bool,
    retrain: RetrainSide<'_>,
) -> Result<Phase, String> {
    let before = server.stats();
    // A flood walks its sequence far faster than cycles consume it.
    let sent = AtomicUsize::new(usize::MAX);
    let run = beside_retrain(
        retrain,
        &traffic.pool,
        &traffic.flood_sequence,
        &sent,
        || {
            flood(&Flood {
                addr: server.local_addr(),
                pool: &traffic.pool,
                sequence: &traffic.flood_sequence,
                reference,
                warmup: WARMUP,
                measure,
                trace,
            })
        },
    )?;
    let stats = stats_delta(&before, &server.stats());
    if let Some(e) = &run.io_error {
        eprintln!("perfbench: flood stopped early: {e}");
    }
    let missing = run.attempted - run.answered;
    Ok(Phase {
        latency: summarize(&run.window_us)?,
        throughput_fps: run.measured_frames as f64 / run.measured_secs.max(1e-9),
        attempted: run.attempted,
        failed: run.degraded + run.mismatches + missing,
        mismatches: run.mismatches,
        late: None,
        inflight_p99: (FLOOD_DEPTH * MAX_BATCH_PER_GUARD) as f64,
        stats,
        tracer: run.tracer,
    })
}

/// The frames the per-layer replay pushes through, and the batch size:
/// the start of the run's own sequence, in the batch shape the server
/// saw (single frames for the paced loops, full windows for the floods).
fn replay_order(traffic: &Traffic) -> (&[u32], usize) {
    match traffic.phases.first() {
        Some((_, sequence)) => (&sequence[..REPLAY_PACED.min(sequence.len())], 1),
        None => (&traffic.flood_sequence[..REPLAY_FLOOD], MAX_BATCH_PER_GUARD),
    }
}

fn layer_metrics(
    phases: &[Phase],
    replay: &replay::Replay,
    key_share: f64,
    times: &churn::RetrainTimes,
    steal: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let untraced = &phases[0];
    let traced = phases.last().unwrap_or(untraced);
    let (hits, misses, evictions, stale, batches, shed) =
        phases.iter().fold((0, 0, 0, 0, 0, 0), |acc, p| {
            let s = &p.stats;
            (
                acc.0 + s.cache_hits,
                acc.1 + s.cache_misses,
                acc.2 + s.cache_evictions,
                acc.3 + s.cache_stale_epoch,
                acc.4 + s.batches,
                acc.5 + s.shed,
            )
        });
    let open_loop = untraced.late.is_some();
    // The live total one frame costs: the request round trip in an open
    // loop; in a flood, wall time per answered frame.
    let live_us = if open_loop {
        untraced.latency.p50
    } else {
        1e6 / untraced.throughput_fps
    };
    let stage_us: Vec<f64> = replay::LIVE_STAGES
        .iter()
        .map(|&name| {
            let us = replay.per_frame_us(name);
            // The server memoises parsed user agents per connection, so
            // only strings it has not seen cost a parse.
            if name == "ua.parse" {
                us * (1.0 - replay.ua_repeat_share)
            } else {
                us
            }
        })
        .collect();
    let split = budget(live_us, &stage_us);
    let overhead = if open_loop {
        traced.latency.p50 / untraced.latency.p50 - 1.0
    } else {
        1.0 - traced.throughput_fps / untraced.throughput_fps
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    println!(
        "  budget per {} (us): live {:.3} = stages {:.3} + residual {:.3}",
        if open_loop {
            "request, client RTT p50"
        } else {
            "frame, flood wall time"
        },
        split.total,
        split.stages,
        split.residual
    );
    for (name, us) in replay::LIVE_STAGES.iter().zip(&stage_us) {
        println!("    {name:<18} {us:>10.4} us/frame");
    }
    println!(
        "  tracing changed latency p50 {:+.4}, p99 {:+.4}, throughput {:+.4} (traced/untraced - 1)",
        traced.latency.p50 / untraced.latency.p50 - 1.0,
        traced.latency.p99 / untraced.latency.p99 - 1.0,
        traced.throughput_fps / untraced.throughput_fps - 1.0
    );

    let m = metric;
    vec![
        m(
            "framing.split_ns_per_frame",
            replay.stage("framing").self_ns / replay.frames as f64,
            "ns",
        ),
        m(
            "wire.cache_key_ns",
            replay.stage("wire.cache_key").per_call(),
            "ns",
        ),
        m(
            "wire.decode_ns",
            replay.stage("wire.decode").per_call(),
            "ns",
        ),
        m("ua.parse_ns", replay.stage("ua.parse").per_call(), "ns"),
        m("ua.repeat_share", replay.ua_repeat_share, "ratio"),
        m(
            "cache.lookup_ns",
            replay.stage("cache.lookup").per_call(),
            "ns",
        ),
        m(
            "cache.insert_ns",
            replay.stage("cache.insert").per_call(),
            "ns",
        ),
        m(
            "cache.occupancy_ns",
            replay.stage("cache.occupancy").per_call(),
            "ns",
        ),
        m("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("cache.evictions", evictions as f64, "count"),
        m("cache.stale_epoch", stale as f64, "count"),
        m("cache.key_repeat_share", key_share, "ratio"),
        m(
            "detect.assess_ns_per_frame",
            replay.stage("detect.assess").self_ns / replay.frames as f64,
            "ns",
        ),
        m(
            "detect.staged_ns_per_frame",
            replay.stage("detect.staged").self_ns / replay.frames as f64,
            "ns",
        ),
        m("quant.fallback_ratio", replay.quant_fallback_ratio, "ratio"),
        m(
            "proto.encode_ns",
            replay.stage("proto.encode").per_call(),
            "ns",
        ),
        m("obs.record_ns", replay.stage("obs.record").per_call(), "ns"),
        m(
            "server.miss_frames_per_batch",
            ratio(misses, batches),
            "frames",
        ),
        m("server.shed", shed as f64, "count"),
        m("server.publish_us", median(&times.publish_us), "us"),
        m("train.refit_ms", median(&times.refit_ms), "ms"),
        m("detect.quantize_ms", median(&times.quantize_ms), "ms"),
        m("sampling.ingest_ns", median(&times.ingest_ns), "ns"),
        m("client.inflight_p99", untraced.inflight_p99, "count"),
        m("budget.stages_us", split.stages, "us"),
        m("budget.residual_us", split.residual, "us"),
        m(
            "gen.late_p50_us",
            untraced.late.map_or(0.0, |l| l.p50),
            "us",
        ),
        m(
            "gen.late_p99_us",
            untraced.late.map_or(0.0, |l| l.p99),
            "us",
        ),
        m("host.steal_frac", steal, "ratio"),
        m("latency_p99_us", untraced.latency.p99, "us"),
        m("latency.samples", untraced.latency.samples as f64, "count"),
        m(
            "latency.p99_beyond",
            untraced.latency.p99_beyond as f64,
            "count",
        ),
        m("error_frac", ratio(failed, attempted), "ratio"),
        m("trace.overhead_frac", overhead, "ratio"),
        m("trace.span_cost_ns", replay.span_cost_ns, "ns"),
    ]
}

/// Writes the traced load phase's client spans and the last replay
/// pass's spans next to the benchmark, one TSV file each.
fn write_traces(opts: &Options, phases: &[Phase], replay: &replay::Replay) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let client = phases.last().and_then(|p| p.tracer.as_ref());
    let files = [("client", client), ("replay", Some(&replay.tracer))];
    for (kind, tracer) in files {
        let Some(tracer) = tracer else { continue };
        let path = dir.join(format!("{stem}-{kind}.tsv"));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            trace::write_tsv(&mut out, tracer.spans(), TRACE_FILE_SPANS)?;
            std::io::Write::flush(&mut out)
        });
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}
