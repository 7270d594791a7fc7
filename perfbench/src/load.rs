//! The two load generators. Each drives one connection from one thread.
//!
//! * [`open_loop`] sends on a precomputed arrival schedule whatever the
//!   server does, and times every request from its *scheduled* send time,
//!   so a stall is charged to every request queued behind it (wrk2's rule
//!   against coordinated omission). It spins instead of sleeping: a
//!   sleeping generator wakes late and would add its own overshoot to
//!   every sample.
//! * [`flood`] keeps [`FLOOD_DEPTH`] pipelined windows of
//!   [`MAX_BATCH_PER_GUARD`] frames in flight and writes the next window
//!   as each one is answered.

use crate::trace::Tracer;
use crate::world::FramePool;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{Verdict, VerdictStatus, MAX_BATCH_PER_GUARD};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Windows a flood keeps in flight: 4 x 32 = 128 frames, below the
/// server's default shed limit of 256 queued frames, so no frame is shed.
pub const FLOOD_DEPTH: usize = 4;
/// How long an open loop waits for the last verdicts after its schedule
/// ends before counting them missing.
const GRACE: Duration = Duration::from_secs(3);

/// One open-loop phase.
pub struct OpenLoop<'a> {
    pub addr: SocketAddr,
    pub pool: &'a FramePool,
    /// Pool index of each arrival.
    pub sequence: &'a [u32],
    /// Send time of each arrival, ns from the phase start.
    pub schedule: &'a [u64],
    /// Model versions published so far; stamped on every request so the
    /// check can tell which models may have answered it.
    pub version: &'a AtomicU64,
    /// Arrivals written so far, for the retrain thread to follow.
    pub sent: &'a AtomicUsize,
    pub trace: bool,
}

/// What an open-loop phase observed, per arrival in schedule order.
pub struct OpenLoopRun {
    /// Arrivals written to the socket.
    pub sent: usize,
    /// When each arrival was written (ns from the phase start).
    pub sent_at: Vec<u64>,
    /// Requests in flight when each arrival was written.
    pub inflight: Vec<u32>,
    /// Published model count when each arrival was written / answered.
    pub version_sent: Vec<u64>,
    pub version_read: Vec<u64>,
    /// When each verdict was read, and its bytes.
    pub read_at: Vec<u64>,
    pub verdicts: Vec<[u8; VERDICT_LEN]>,
    pub io_error: Option<String>,
    /// Client spans: one `request` per arrival (index = arrival) from its
    /// scheduled send to its verdict, with the write and read calls as
    /// children.
    pub tracer: Option<Tracer>,
}

pub fn open_loop(cfg: &OpenLoop<'_>) -> OpenLoopRun {
    let n = cfg.schedule.len();
    let mut run = OpenLoopRun {
        sent: 0,
        sent_at: Vec::with_capacity(n),
        inflight: Vec::with_capacity(n),
        version_sent: Vec::with_capacity(n),
        version_read: Vec::with_capacity(n),
        read_at: Vec::with_capacity(n),
        verdicts: Vec::with_capacity(n),
        io_error: None,
        tracer: None,
    };
    let mut stream = match connect(cfg.addr, true) {
        Ok(s) => s,
        Err(e) => {
            run.io_error = Some(format!("connect: {e}"));
            return run;
        }
    };
    let origin = Instant::now();
    let mut tracer = cfg.trace.then(|| {
        let mut t = Tracer::new(origin);
        for (i, &at) in cfg.schedule.iter().enumerate() {
            t.record("request", at, at, None, i as u64);
        }
        t
    });
    let deadline = cfg.schedule.last().copied().unwrap_or(0) + GRACE.as_nanos() as u64;
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_pos = 0;
    // First arrival in `out`: the parent of the write span that sends it.
    let mut out_first = 0;
    let mut buf = vec![0u8; 64 * 1024];
    let mut partial = [0u8; VERDICT_LEN];
    let mut partial_len = 0;
    let now_ns = |origin: Instant| origin.elapsed().as_nanos() as u64;
    loop {
        let now = now_ns(origin);
        let queued_before = run.sent;
        while run.sent < n && cfg.schedule[run.sent] <= now {
            let i = run.sent;
            if out.is_empty() {
                out_first = i;
            }
            out.extend_from_slice(cfg.pool.wire(cfg.sequence[i] as usize));
            run.sent_at.push(now);
            run.inflight.push((i - run.read_at.len()) as u32);
            run.version_sent.push(cfg.version.load(Ordering::SeqCst));
            run.sent += 1;
        }
        if run.sent > queued_before {
            cfg.sent.store(run.sent, Ordering::SeqCst);
        }
        if out_pos < out.len() {
            let w0 = tracer.as_ref().map(Tracer::now);
            match stream.write(&out[out_pos..]) {
                Ok(k) => {
                    if let (Some(t), Some(w0)) = (tracer.as_mut(), w0) {
                        let w1 = t.now();
                        t.record("client.write", w0, w1, Some(out_first), out_first as u64);
                    }
                    out_pos += k;
                    if out_pos == out.len() {
                        out.clear();
                        out_pos = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    run.io_error = Some(format!("write: {e}"));
                    break;
                }
            }
        }
        let r0 = tracer.as_ref().map(Tracer::now);
        match stream.read(&mut buf) {
            Ok(0) => {
                run.io_error = Some("server closed the connection".into());
                break;
            }
            Ok(k) => {
                let t = now_ns(origin);
                let first = run.read_at.len();
                let version = cfg.version.load(Ordering::SeqCst);
                let mut bytes = &buf[..k];
                while !bytes.is_empty() {
                    let take = (VERDICT_LEN - partial_len).min(bytes.len());
                    partial[partial_len..partial_len + take].copy_from_slice(&bytes[..take]);
                    partial_len += take;
                    bytes = &bytes[take..];
                    if partial_len == VERDICT_LEN {
                        partial_len = 0;
                        if run.read_at.len() >= run.sent {
                            run.io_error = Some("more verdicts than requests".into());
                            break;
                        }
                        run.verdicts.push(partial);
                        run.read_at.push(t);
                        run.version_read.push(version);
                    }
                }
                if let (Some(tr), Some(r0)) = (tracer.as_mut(), r0) {
                    for i in first..run.read_at.len() {
                        tr.set_end(i, t);
                    }
                    if run.read_at.len() > first {
                        tr.record("client.read", r0, t, Some(first), first as u64);
                    }
                }
                if run.io_error.is_some() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                run.io_error = Some(format!("read: {e}"));
                break;
            }
        }
        if run.sent == n && run.read_at.len() == n {
            break;
        }
        if now > deadline {
            break;
        }
    }
    run.tracer = tracer;
    run
}

/// One closed-loop flood phase.
pub struct Flood<'a> {
    pub addr: SocketAddr,
    pub pool: &'a FramePool,
    /// Pool indices, cycled through window by window.
    pub sequence: &'a [u32],
    /// Expected encoded verdict per pool frame.
    pub reference: &'a [[u8; VERDICT_LEN]],
    pub warmup: Duration,
    pub measure: Duration,
    pub trace: bool,
}

/// What a flood phase observed.
pub struct FloodRun {
    /// Frames written and frames whose verdict came back.
    pub attempted: u64,
    pub answered: u64,
    /// Verdicts that were `Degraded` (shed) rather than assessed.
    pub degraded: u64,
    /// Verdicts that differ from the reference (and are not `Degraded`).
    pub mismatches: u64,
    /// Frames answered inside the measured interval, and its length.
    pub measured_frames: u64,
    pub measured_secs: f64,
    /// Per window answered inside the measured interval: time from
    /// writing it to reading its last verdict, in µs.
    pub window_us: Vec<f64>,
    pub io_error: Option<String>,
    /// Client spans: one `window` per window, with its write and read
    /// calls as children.
    pub tracer: Option<Tracer>,
}

pub fn flood(cfg: &Flood<'_>) -> FloodRun {
    let mut run = FloodRun {
        attempted: 0,
        answered: 0,
        degraded: 0,
        mismatches: 0,
        measured_frames: 0,
        measured_secs: 0.0,
        window_us: Vec::new(),
        io_error: None,
        tracer: None,
    };
    let mut stream = match connect(cfg.addr, false) {
        Ok(s) => s,
        Err(e) => {
            run.io_error = Some(format!("connect: {e}"));
            return run;
        }
    };
    let origin = Instant::now();
    let mut tracer = cfg.trace.then(|| Tracer::new(origin));
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let warm_end = cfg.warmup.as_nanos() as u64;
    let mut measure_start: Option<u64> = None;
    let measure_ns = cfg.measure.as_nanos() as u64;
    // (first sequence position, write start ns, window span index)
    let mut inflight: VecDeque<(usize, u64, usize)> = VecDeque::new();
    let mut pos = 0usize;
    let mut wire = Vec::with_capacity(MAX_BATCH_PER_GUARD * 128);
    let mut replies = vec![0u8; MAX_BATCH_PER_GUARD * VERDICT_LEN];
    let mut writing = true;
    let mut window_id = 0u64;
    loop {
        while writing && inflight.len() < FLOOD_DEPTH {
            wire.clear();
            for k in 0..MAX_BATCH_PER_GUARD {
                let idx = cfg.sequence[(pos + k) % cfg.sequence.len()];
                wire.extend_from_slice(cfg.pool.wire(idx as usize));
            }
            let w0 = now_ns();
            if let Err(e) = stream.write_all(&wire) {
                run.io_error = Some(format!("write: {e}"));
                return finish(run, tracer);
            }
            let span = match tracer.as_mut() {
                Some(t) => {
                    let w1 = t.now();
                    let span = t.record("window", w0, w0, None, window_id);
                    t.record("client.write", w0, w1, Some(span), window_id);
                    span
                }
                None => 0,
            };
            window_id += 1;
            inflight.push_back((pos, w0, span));
            run.attempted += MAX_BATCH_PER_GUARD as u64;
            pos = (pos + MAX_BATCH_PER_GUARD) % cfg.sequence.len();
        }
        let Some((first, written_at, span)) = inflight.pop_front() else {
            break;
        };
        let r0 = tracer.as_ref().map(Tracer::now);
        if let Err(e) = stream.read_exact(&mut replies) {
            run.io_error = Some(format!("read: {e}"));
            return finish(run, tracer);
        }
        let t = now_ns();
        if let (Some(tr), Some(r0)) = (tracer.as_mut(), r0) {
            tr.record("client.read", r0, t, Some(span), tr.spans()[span].id);
            tr.set_end(span, t);
        }
        for (k, got) in replies.chunks_exact(VERDICT_LEN).enumerate() {
            let idx = cfg.sequence[(first + k) % cfg.sequence.len()] as usize;
            run.answered += 1;
            if got == cfg.reference[idx] {
                continue;
            }
            if is_degraded(got) {
                run.degraded += 1;
            } else {
                run.mismatches += 1;
            }
        }
        match measure_start {
            None if t >= warm_end => measure_start = Some(t),
            Some(start) if writing => {
                run.measured_frames += MAX_BATCH_PER_GUARD as u64;
                run.window_us.push((t - written_at) as f64 / 1e3);
                run.measured_secs = (t - start) as f64 / 1e9;
                if t - start >= measure_ns {
                    writing = false;
                }
            }
            _ => {}
        }
    }
    finish(run, tracer)
}

fn finish(mut run: FloodRun, tracer: Option<Tracer>) -> FloodRun {
    run.tracer = tracer;
    run
}

/// Whether an encoded verdict carries the `Degraded` (shed) status.
pub fn is_degraded(verdict: &[u8]) -> bool {
    Verdict::decode(verdict).is_ok_and(|v| v.status == VerdictStatus::Degraded)
}

fn connect(addr: SocketAddr, nonblocking: bool) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nonblocking(nonblocking)?;
    Ok(stream)
}
