//! Regression tests for the risk server's connection lifecycle:
//!
//! * finished connections are reaped (worker threads joined) while the
//!   server runs, not only at shutdown;
//! * an idle keep-alive client survives read-timeout ticks, while a
//!   stalled partial frame does not;
//! * shutdown is bounded even with a connected-but-silent client.

use browser_engine::{UserAgent, Vendor};
use fingerprint::{encode_submission, FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_service::server::{
    start_risk_server, start_risk_server_with, RiskServerConfig, RiskServerHandle,
};
use polygraph_service::{Verdict, VerdictStatus};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn honest_frame() -> Vec<u8> {
    let sub = Submission {
        session_id: [7u8; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
        values: vec![10, 10],
    };
    encode_submission(&sub).unwrap().to_vec()
}

fn send_frame(stream: &mut TcpStream, frame: &[u8]) {
    stream
        .write_all(&(frame.len() as u16).to_le_bytes())
        .unwrap();
    stream.write_all(frame).unwrap();
}

fn read_verdict(stream: &mut TcpStream) -> Verdict {
    let mut buf = [0u8; 8];
    stream.read_exact(&mut buf).unwrap();
    Verdict::decode(&buf).unwrap()
}

/// Polls `cond` against the server's stats until it holds or `deadline`
/// elapses.
fn wait_for(
    server: &RiskServerHandle,
    deadline: Duration,
    cond: impl Fn(u64) -> bool,
    read: impl Fn(&RiskServerHandle) -> u64,
) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond(read(server)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "condition not reached within {deadline:?}; last value {}",
        read(server)
    );
}

#[test]
fn finished_connections_are_reaped_while_serving() {
    let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();

    // Open, use, and close a few connections sequentially.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        send_frame(&mut stream, &honest_frame());
        assert_eq!(read_verdict(&mut stream).status, VerdictStatus::Assessed);
        drop(stream);
    }

    // The server must join each finished worker while it keeps running,
    // observable through the reap counter, which final shutdown joins
    // deliberately do not touch.
    wait_for(
        &server,
        Duration::from_secs(5),
        |reaped| reaped >= 3,
        |s| s.stats().connections_reaped,
    );
    let stats = server.stats();
    assert_eq!(stats.connections_opened, 3);
    assert_eq!(stats.connections_closed, 3);
    assert_eq!(stats.connections_errored, 0);
    assert_eq!(
        stats.connections_open, 0,
        "every retired connection must release the gauge"
    );
    server.shutdown();
}

#[test]
fn idle_keepalive_client_survives_read_timeouts() {
    let config = RiskServerConfig {
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Stay silent for several read-timeout ticks, then submit. Before
    // the fix the first tick returned Err and killed the connection.
    std::thread::sleep(Duration::from_millis(350));
    send_frame(&mut stream, &honest_frame());
    assert_eq!(
        read_verdict(&mut stream).status,
        VerdictStatus::Assessed,
        "the idle connection must still be alive after several timeouts"
    );
    let stats = server.stats();
    assert!(
        stats.idle_timeouts >= 1,
        "idle ticks must be counted, got {}",
        stats.idle_timeouts
    );
    assert_eq!(stats.connections_errored, 0);
    drop(stream);
    server.shutdown();
}

#[test]
fn stalled_partial_frame_fails_the_connection() {
    let config = RiskServerConfig {
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Declare a 100-byte body but send only 3 bytes, then stall:
    // unlike pure idleness, a half-delivered frame past the timeout
    // is fatal.
    stream.write_all(&100u16.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    wait_for(
        &server,
        Duration::from_secs(5),
        |errored| errored >= 1,
        |s| s.stats().connections_errored,
    );
    assert_eq!(
        server.stats().connections_open,
        0,
        "the errored connection must release the gauge"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn shutdown_is_bounded_with_silent_connected_client() {
    let config = RiskServerConfig {
        read_timeout: Duration::from_millis(200),
        ..Default::default()
    };
    let server = start_risk_server_with("127.0.0.1:0", tiny_detector(), config).unwrap();

    // A connected client that never sends a byte. Its worker notices
    // the stop flag within one read-timeout tick.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the accept land

    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown must be bounded by ~one read-timeout tick, took {elapsed:?}"
    );
    drop(stream);
}
