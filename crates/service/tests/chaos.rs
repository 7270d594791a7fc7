//! The chaos suite: deterministic fault-injection regressions for the
//! client/server protocol.
//!
//! Each test pins one fault class the `polygraph_service::chaos` harness
//! (or a hand-rolled misbehaving server) flushes out:
//!
//! * stale bytes after a read timeout must never misparse as the *next*
//!   request's verdict (the poisoning bugfix);
//! * a connection reset mid-verdict is retried on a fresh connection;
//! * a stall that exhausts retries is an *accounted* client error, and
//!   the `round_trip.count + client.errors == client.requests` identity
//!   holds exactly;
//! * split and slow-loris-dripped frames still parse to correct verdicts;
//! * delayed `STATS` responses inside the deadline succeed;
//! * a full seeded chaos run ends every submission in exactly one of
//!   Assessed / Degraded / client error — zero garbage verdicts.
//!
//! Every test is seeded (`FaultPlan` seeds, `retry_seed`s) so a failure
//! reproduces from the log line alone. The proxy-backed tests run against
//! a real risk server; the three hand-rolled fake-server tests exercise
//! only the client.

use browser_engine::{UserAgent, Vendor};
use fingerprint::{FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_obs::Registry;
use polygraph_service::client::metric_names;
use polygraph_service::proto::VERDICT_LEN;
use polygraph_service::{
    start_chaos_proxy, start_risk_server, start_risk_server_with, FaultConfig, FaultPlan,
    RiskClient, RiskClientConfig, Verdict, VerdictStatus,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The seed of the full chaos run. Change it and the run is a different
/// (but equally reproducible) schedule of faults.
const CHAOS_SEED: u64 = 0xB10B;

fn tiny_detector() -> Detector {
    let mut set = TrainingSet::new(2);
    for (base, ua) in [
        (0.0, UserAgent::new(Vendor::Chrome, 60)),
        (10.0, UserAgent::new(Vendor::Chrome, 100)),
    ] {
        for j in 0..40 {
            set.push(vec![base + (j % 2) as f64 * 0.1, base], ua)
                .unwrap();
        }
    }
    let fs = FeatureSet::table8().subset(&[0, 1]);
    let config = TrainConfig {
        k: 2,
        n_components: 2,
        min_samples_for_majority: 1,
        ..Default::default()
    };
    Detector::new(TrainedModel::fit(fs, &set, config).unwrap())
}

/// A Chrome 100 submission that lands in its expected cluster.
fn honest_submission(tag: u8) -> Submission {
    Submission {
        session_id: [tag; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
        values: vec![10, 10],
    }
}

/// A Chrome 100 claim over Chrome 60's fingerprint: always flagged.
fn lying_submission(tag: u8) -> Submission {
    Submission {
        values: vec![0, 0],
        ..honest_submission(tag)
    }
}

fn fast_retry_config(max_retries: u32, timeout: Duration) -> RiskClientConfig {
    RiskClientConfig {
        request_timeout: timeout,
        max_retries,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        retry_seed: CHAOS_SEED,
    }
}

fn counter(client: &RiskClient, name: &str) -> u64 {
    client
        .registry()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn round_trip_count(client: &RiskClient) -> u64 {
    client
        .registry()
        .snapshot()
        .histograms
        .get(metric_names::ROUND_TRIP_MICROS)
        .map(|h| h.count)
        .unwrap_or(0)
}

/// Reads one length-prefixed request frame off `stream` (the fake-server
/// half of the protocol).
fn read_request(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 2];
    stream.read_exact(&mut header).unwrap();
    let len = u16::from_le_bytes(header) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    body
}

fn good_verdict() -> Verdict {
    Verdict {
        status: VerdictStatus::Assessed,
        flagged: false,
        risk_factor: 0,
        predicted_cluster: 1,
        expected_cluster: Some(1),
    }
}

/// The stale-bytes regression (the original protocol bug): a server that
/// answers a request *after* the client's read deadline. The old client
/// kept the stream; the late verdict bytes then answered the *next*
/// request — a garbage verdict attributed to the wrong session. The
/// poisoning client must discard the stream and retry on a fresh
/// connection, never reading the stale bytes.
#[test]
fn stale_bytes_after_timeout_never_misparse_as_next_verdict() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        // Connection 1, handled on the side: stall past the deadline,
        // then answer late with a poison-pill verdict (flagged, max
        // risk). The pill lands in the client's receive buffer while the
        // client has long moved on — only poisoning keeps it unread.
        let (mut c1, _) = listener.accept().unwrap();
        let late = thread::spawn(move || {
            let _ = read_request(&mut c1);
            thread::sleep(Duration::from_millis(250));
            let pill = Verdict {
                status: VerdictStatus::Assessed,
                flagged: true,
                risk_factor: 20,
                predicted_cluster: 9,
                expected_cluster: Some(1),
            };
            let _ = c1.write_all(&pill.encode());
            thread::sleep(Duration::from_millis(100));
        });
        // Connection 2: the retry, served promptly. Answer correctly,
        // then serve one more request to prove the client's new stream
        // stays in sync.
        let (mut c2, _) = listener.accept().unwrap();
        for _ in 0..2 {
            let _ = read_request(&mut c2);
            c2.write_all(&good_verdict().encode()).unwrap();
        }
        late.join().unwrap();
    });

    let mut client = RiskClient::connect_with_config(
        addr,
        Arc::new(Registry::monotonic()),
        fast_retry_config(1, Duration::from_millis(100)),
    )
    .unwrap();

    let v = client.assess_submission(&honest_submission(1)).unwrap();
    assert_eq!(v.status, VerdictStatus::Assessed);
    assert!(
        !v.flagged,
        "the late poison-pill verdict must never surface"
    );

    // A second request on the now-healthy connection stays in sync.
    let v = client.assess_submission(&honest_submission(2)).unwrap();
    assert!(!v.flagged);

    assert_eq!(counter(&client, metric_names::REQUESTS), 2);
    assert_eq!(counter(&client, metric_names::ERRORS), 0);
    assert_eq!(counter(&client, metric_names::RETRIES), 1);
    assert_eq!(counter(&client, metric_names::POISONED), 1);
    assert_eq!(counter(&client, metric_names::RECONNECTS), 1);
    assert_eq!(round_trip_count(&client), 2);
    drop(client);
    server.join().unwrap();
}

/// A connection reset halfway through a verdict: the client reads a torn
/// 4-of-8-byte response, poisons, and retries on a fresh connection.
#[test]
fn mid_verdict_reset_is_retried_on_a_fresh_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut c1, _) = listener.accept().unwrap();
        let _ = read_request(&mut c1);
        let torn = good_verdict().encode();
        c1.write_all(&torn[..VERDICT_LEN / 2]).unwrap();
        drop(c1); // reset mid-verdict
        let (mut c2, _) = listener.accept().unwrap();
        let _ = read_request(&mut c2);
        c2.write_all(&good_verdict().encode()).unwrap();
    });

    let mut client = RiskClient::connect_with_config(
        addr,
        Arc::new(Registry::monotonic()),
        fast_retry_config(1, Duration::from_millis(500)),
    )
    .unwrap();
    let v = client.assess_submission(&honest_submission(3)).unwrap();
    assert_eq!(v.status, VerdictStatus::Assessed);
    assert_eq!(counter(&client, metric_names::RETRIES), 1);
    assert_eq!(counter(&client, metric_names::POISONED), 1);
    assert_eq!(counter(&client, metric_names::ERRORS), 0);
    drop(client);
    server.join().unwrap();
}

/// The backoff-reset bugfix, pinned end-to-end: blip → success → blip.
/// The failure streak must reset on the successful exchange, so the
/// second blip's first-retry sleep is `backoff_base`-scaled again — not
/// scaled by the streak the first blip started. The seeded jitter stream
/// makes both sleeps exactly predictable, and `client.backoff_micros`
/// records what was actually slept.
#[test]
fn backoff_streak_resets_after_a_successful_exchange() {
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        // Connection 1: blip — read the request, close without answering.
        let (mut c1, _) = listener.accept().unwrap();
        let _ = read_request(&mut c1);
        drop(c1);
        // Connection 2: the retry succeeds (streak resets), then the
        // next request on the same stream blips again.
        let (mut c2, _) = listener.accept().unwrap();
        let _ = read_request(&mut c2);
        c2.write_all(&good_verdict().encode()).unwrap();
        let _ = read_request(&mut c2);
        drop(c2);
        // Connection 3: the second retry succeeds.
        let (mut c3, _) = listener.accept().unwrap();
        let _ = read_request(&mut c3);
        c3.write_all(&good_verdict().encode()).unwrap();
    });

    let mut client = RiskClient::connect_with_config(
        addr,
        Arc::new(Registry::monotonic()),
        fast_retry_config(2, Duration::from_millis(500)),
    )
    .unwrap();
    assert!(
        !client
            .assess_submission(&honest_submission(7))
            .unwrap()
            .flagged
    );
    assert!(
        !client
            .assess_submission(&honest_submission(8))
            .unwrap()
            .flagged
    );

    // Reproduce the client's seeded jitter stream: two draws, both over
    // the *base* interval — first-retry sleeps both times.
    let base_us = 5_000u64; // fast_retry_config's 5 ms backoff_base
    let mut rng = ChaCha8Rng::seed_from_u64(CHAOS_SEED);
    let mut draw = |full: u64| full / 2 + rng.next_u64() % (full - full / 2 + 1);
    let expected = draw(base_us) + draw(base_us);

    let snap = client.registry().snapshot();
    let backoffs = snap.histograms.get(metric_names::BACKOFF_MICROS).unwrap();
    assert_eq!(backoffs.count, 2, "one backoff sleep per blip");
    assert_eq!(
        backoffs.sum, expected,
        "both sleeps must be backoff_base-scaled first-retry draws — the \
         streak the first blip started must not survive the success \
         (seed {CHAOS_SEED:#x})"
    );
    assert_eq!(counter(&client, metric_names::RETRIES), 2);
    assert_eq!(counter(&client, metric_names::ERRORS), 0);
    assert_eq!(round_trip_count(&client), 2);
    drop(client);
    server.join().unwrap();
}

/// A server that never answers: the client times out on every attempt,
/// exhausts its retries, and reports an *accounted* error — the counter
/// identity `round_trip.count + client.errors == client.requests` holds
/// exactly, so no request can vanish from the books.
#[test]
fn exhausted_retries_are_an_accounted_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let mut held = Vec::new();
        // Accept (and hold) every attempt without ever answering. The
        // sockets stay open well past the client's whole retry budget so
        // the failure it reports is the deadline, not our teardown.
        for _ in 0..3 {
            if let Ok((mut s, _)) = listener.accept() {
                let _ = read_request(&mut s);
                held.push(s);
            }
        }
        thread::sleep(Duration::from_millis(500));
    });

    let mut client = RiskClient::connect_with_config(
        addr,
        Arc::new(Registry::monotonic()),
        fast_retry_config(2, Duration::from_millis(60)),
    )
    .unwrap();
    // One successful-looking call first is impossible here; go straight
    // to the failure and check the books afterwards.
    let err = client.assess_submission(&honest_submission(4)).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "expected a timeout error, got {err:?}"
    );
    let requests = counter(&client, metric_names::REQUESTS);
    let errors = counter(&client, metric_names::ERRORS);
    assert_eq!(requests, 1);
    assert_eq!(errors, 1);
    assert_eq!(counter(&client, metric_names::RETRIES), 2);
    assert_eq!(counter(&client, metric_names::POISONED), 3);
    assert_eq!(
        round_trip_count(&client) + errors,
        requests,
        "the latency histogram may only count completed round trips"
    );
    drop(client);
    server.join().unwrap();
}

/// Split submission frames (client→server) and slow-loris-dripped
/// verdicts (server→client), via the chaos proxy against a real risk
/// server: framing reassembles both and every verdict is correct.
#[test]
fn split_and_dripped_frames_still_parse_to_correct_verdicts() {
    let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
    let c2s = FaultConfig {
        split_per_mille: 1000, // split every chunk
        delay: Duration::from_millis(2),
        ..FaultConfig::none()
    };
    let s2c = FaultConfig {
        drip_per_mille: 1000, // drip every chunk byte-by-byte
        drip_step: Duration::from_millis(1),
        ..FaultConfig::none()
    };
    let proxy =
        start_chaos_proxy(server.local_addr(), FaultPlan::directional(11, c2s, s2c)).unwrap();

    let mut client = RiskClient::connect_with_config(
        proxy.local_addr(),
        Arc::new(Registry::monotonic()),
        fast_retry_config(0, Duration::from_secs(5)),
    )
    .unwrap();
    for i in 0..8u8 {
        let (sub, expect_flagged) = if i % 2 == 0 {
            (honest_submission(i), false)
        } else {
            (lying_submission(i), true)
        };
        let v = client.assess_submission(&sub).unwrap();
        assert_eq!(v.status, VerdictStatus::Assessed, "submission {i}");
        assert_eq!(v.flagged, expect_flagged, "submission {i}");
    }
    assert_eq!(counter(&client, metric_names::ERRORS), 0);
    assert_eq!(counter(&client, metric_names::RETRIES), 0);
    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// A delayed (but in-deadline) `STATS` response: the multi-read stats
/// exchange survives its header and body arriving late and in pieces.
#[test]
fn delayed_stats_response_within_deadline_succeeds() {
    let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
    let s2c = FaultConfig {
        delay_per_mille: 1000,
        delay: Duration::from_millis(40),
        split_per_mille: 0,
        ..FaultConfig::none()
    };
    let proxy = start_chaos_proxy(
        server.local_addr(),
        FaultPlan::directional(23, FaultConfig::none(), s2c),
    )
    .unwrap();

    let mut client = RiskClient::connect_with_config(
        proxy.local_addr(),
        Arc::new(Registry::monotonic()),
        fast_retry_config(1, Duration::from_secs(5)),
    )
    .unwrap();
    client.assess_submission(&honest_submission(9)).unwrap();
    let snap = client.fetch_stats().unwrap();
    assert_eq!(
        snap.counters
            .get(polygraph_service::server::metric_names::ASSESSED),
        Some(&1)
    );
    assert_eq!(counter(&client, metric_names::STATS_ERRORS), 0);
    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// The full seeded chaos run: every fault class enabled at once against a
/// real server, with stalls long enough to trip the client deadline. The
/// invariant under test is *zero garbage verdicts*: each submission ends
/// in exactly one of
///
/// * `Assessed` with the flag its fingerprint deserves,
/// * `Degraded` (server shed it honestly), or
/// * a client error after bounded retries (accounted in `client.errors`);
///
/// and the books balance: `round_trip.count + errors == requests`.
#[test]
fn seeded_chaos_run_yields_zero_garbage_verdicts() {
    let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
    let faults = FaultConfig {
        reset_per_mille: 60,
        stall_per_mille: 40,
        stall: Duration::from_millis(350), // > request_timeout: forces poison path
        drip_per_mille: 30,
        drip_step: Duration::from_millis(1),
        split_per_mille: 150,
        delay_per_mille: 100,
        delay: Duration::from_millis(10),
    };
    let proxy = start_chaos_proxy(
        server.local_addr(),
        FaultPlan::symmetric(CHAOS_SEED, faults),
    )
    .unwrap();

    let mut client = RiskClient::connect_with_config(
        proxy.local_addr(),
        Arc::new(Registry::monotonic()),
        fast_retry_config(3, Duration::from_millis(200)),
    )
    .unwrap();

    let total = 60u32;
    let mut assessed = 0u32;
    let mut degraded = 0u32;
    let mut failed = 0u32;
    for i in 0..total {
        let tag = (i % 251) as u8;
        let (sub, expect_flagged) = if i % 2 == 0 {
            (honest_submission(tag), false)
        } else {
            (lying_submission(tag), true)
        };
        match client.assess_submission(&sub) {
            Ok(v) => match v.status {
                VerdictStatus::Assessed => {
                    // THE invariant: a verdict that claims to assess this
                    // submission must carry this submission's answer. Any
                    // cross-wired response (stale bytes, torn frame
                    // resync) shows up here as a flag mismatch.
                    assert_eq!(
                        v.flagged, expect_flagged,
                        "garbage verdict for submission {i} (seed {CHAOS_SEED:#x})"
                    );
                    assessed += 1;
                }
                VerdictStatus::Degraded => degraded += 1,
                other => panic!("submission {i}: unexpected status {other:?}"),
            },
            Err(_) => failed += 1,
        }
    }

    assert_eq!(assessed + degraded + failed, total);
    assert!(
        assessed > total / 2,
        "retries should carry most submissions through (assessed {assessed}/{total})"
    );

    let requests = counter(&client, metric_names::REQUESTS);
    let errors = counter(&client, metric_names::ERRORS);
    assert_eq!(requests, u64::from(total));
    assert_eq!(errors, u64::from(failed));
    assert_eq!(
        round_trip_count(&client) + errors,
        requests,
        "the latency histogram counts completed round trips only"
    );

    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// The seeded chaos run again, at a high duplicate ratio with the
/// verdict cache enabled. Session tags vary on every request, but the
/// cache keys on the session-invariant (fingerprint, user-agent) pair —
/// so the two distinct submissions in this mix repeat at a ~0.97
/// duplicate ratio and most answers come from cache, *through the same
/// fault schedule*. Two invariants:
///
/// * zero garbage verdicts: a cached answer must still be *this*
///   submission's answer, fault or no fault;
/// * the cache books balance: every normal-path submission frame the
///   server saw is exactly one hit or one miss, so
///   `cache.hits + cache.misses == assessed + malformed + shed_exempt`
///   (no shedding or malformed traffic occurs here, but the identity is
///   asserted in full).
#[test]
fn seeded_chaos_run_with_cache_keeps_books_balanced() {
    let config = polygraph_service::RiskServerConfig {
        cache_shards: 4,
        cache_capacity: 256,
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
    let faults = FaultConfig {
        reset_per_mille: 60,
        stall_per_mille: 40,
        stall: Duration::from_millis(350),
        drip_per_mille: 30,
        drip_step: Duration::from_millis(1),
        split_per_mille: 150,
        delay_per_mille: 100,
        delay: Duration::from_millis(10),
    };
    let proxy = start_chaos_proxy(
        server.local_addr(),
        FaultPlan::symmetric(CHAOS_SEED, faults),
    )
    .unwrap();

    let mut client = RiskClient::connect_with_config(
        proxy.local_addr(),
        Arc::new(Registry::monotonic()),
        fast_retry_config(3, Duration::from_millis(200)),
    )
    .unwrap();

    let total = 60u32;
    let mut assessed_ok = 0u32;
    let mut degraded = 0u32;
    let mut failed = 0u32;
    for i in 0..total {
        let tag = (i % 251) as u8;
        let (sub, expect_flagged) = if i % 2 == 0 {
            (honest_submission(tag), false)
        } else {
            (lying_submission(tag), true)
        };
        match client.assess_submission(&sub) {
            Ok(v) => match v.status {
                VerdictStatus::Assessed => {
                    assert_eq!(
                        v.flagged, expect_flagged,
                        "garbage verdict for submission {i} (seed {CHAOS_SEED:#x}): \
                     a cache hit answered with the wrong pair's verdict"
                    );
                    assessed_ok += 1;
                }
                VerdictStatus::Degraded => degraded += 1,
                other => panic!("submission {i}: unexpected status {other:?}"),
            },
            Err(_) => failed += 1,
        }
    }
    assert_eq!(assessed_ok + degraded + failed, total);
    assert!(
        assessed_ok > total / 2,
        "retries should carry most submissions through (assessed {assessed_ok}/{total})"
    );

    drop(client);
    proxy.shutdown();
    let stats = server.stats();
    server.shutdown();

    // Two distinct (fingerprint, UA) pairs in the whole run: after the
    // two cold misses (plus any misses retried across a detector-free
    // moment), everything is a hit.
    assert!(stats.cache_hits > 0, "a 0.97 duplicate ratio must hit");
    assert!(
        stats.cache_misses >= 2,
        "both distinct pairs miss cold at least once"
    );
    assert_eq!(stats.cache_stale_epoch, 0, "no swap happened");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.assessed + stats.malformed + stats.cache_shed_exempt,
        "cache books must balance: every normal-path submission frame \
     is exactly one hit or one miss (seed {CHAOS_SEED:#x})"
    );
    assert!(
        stats.assessed >= u64::from(assessed_ok),
        "server-side assessments include replies lost to faults"
    );
}
