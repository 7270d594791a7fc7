//! Regression test: an `accept` error must not kill the acceptor.
//!
//! Under a connection flood `accept` fails with `EMFILE` once the
//! process runs out of file descriptors. The acceptor used to treat any
//! error other than `WouldBlock` as fatal: it left its loop and dropped
//! the listener, so every later connect was refused while the server
//! handle still looked healthy. Now it backs off and retries until
//! shutdown.
//!
//! The test exhausts the process fd table, so it lives in its own
//! integration-test binary: no other test may share its process.

use browser_engine::{UserAgent, Vendor};
use fingerprint::{encode_submission, FeatureSet, Submission};
use polygraph_core::{Detector, TrainConfig, TrainedModel, TrainingSet};
use polygraph_service::server::start_risk_server;
use polygraph_service::{Verdict, VerdictStatus};
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

fn assess_once(stream: &mut TcpStream) -> Verdict {
    let sub = Submission {
        session_id: [7u8; 16],
        user_agent: UserAgent::new(Vendor::Chrome, 100).to_ua_string(),
        values: vec![10, 10],
    };
    let frame = encode_submission(&sub).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&(frame.len() as u16).to_le_bytes())
        .unwrap();
    stream.write_all(&frame).unwrap();
    let mut buf = [0u8; 8];
    stream.read_exact(&mut buf).unwrap();
    Verdict::decode(&buf).unwrap()
}

#[test]
fn acceptor_survives_fd_exhaustion() {
    let server = start_risk_server("127.0.0.1:0", tiny_detector()).unwrap();
    let addr = server.local_addr();

    // Fill the fd table, then free exactly one slot for the client
    // socket: the handshake completes in the kernel backlog, and the
    // server's `accept` has no descriptor left to hand it (`EMFILE`).
    let mut hog = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hog.push(f);
    }
    hog.pop();
    let mut stuck = TcpStream::connect(addr).expect("connect while the fd table is full");
    // Let the acceptor run into `EMFILE` a good number of times.
    std::thread::sleep(Duration::from_millis(100));
    drop(hog);

    // The listener must still be up: a fresh client gets a verdict, and
    // the connection that arrived during the exhaustion is served too.
    let mut fresh = TcpStream::connect(addr).expect("listener survived the accept errors");
    assert_eq!(assess_once(&mut fresh).status, VerdictStatus::Assessed);
    assert_eq!(assess_once(&mut stuck).status, VerdictStatus::Assessed);
    drop((fresh, stuck));
    server.shutdown();
}
