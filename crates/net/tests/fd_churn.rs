//! Connection churn must not leak descriptors: the server releases a
//! closed connection's sockets while it keeps running, not only at
//! shutdown. Counted through `/proc/self/fd`, so Linux only; this file is
//! its own test process, so no other test's sockets blur the count.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use he_accel::prelude::*;
use he_net::{NetServer, NetSession};

/// Descriptors allowed above the baseline (client reader threads still
/// unwinding, allocator or runtime internals).
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

#[test]
fn connect_ping_close_churn_keeps_descriptors_flat() {
    let pool = ServerPool::spawn(
        vec![EvalEngine::new(
            SsaSoftware::for_operand_bits(256).expect("fits"),
        )],
        ServeConfig::default(),
    );
    let server = NetServer::bind_tcp(pool, "127.0.0.1:0").expect("bind loopback");
    let endpoint = server.local_endpoint();
    let cycle = || {
        let session = NetSession::connect(endpoint.clone()).expect("connect");
        session.ping().expect("ping");
        session.close();
    };
    // One cycle first, so descriptors opened once per process are in the
    // baseline.
    cycle();
    let baseline = open_fds();
    for _ in 0..200 {
        cycle();
    }
    // Reaping is asynchronous (the accept loop joins finished
    // connections between polls); give it time, then demand a flat count.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_fds();
    while open > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_fds();
    }
    assert!(
        open <= baseline + SLACK,
        "{open} descriptors open after 200 connect/close cycles, baseline {baseline}"
    );
    server.shutdown();
}
