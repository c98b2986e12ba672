//! Integration tests for the daemon: pipelining, error mapping, the
//! connection limits, the STATS request and the graceful shutdown
//! drain — everything through real sockets on loopback.

use krv_server::{Client, ClientError, ErrorCode, Server, ServerConfig, WireAlgorithm};
use krv_service::{MetricsSnapshot, ServiceConfig};
use krv_sha3::{Sha3_256, Sha3_512, Shake128, Shake256};
use krv_testkit::Rng;
use std::time::Duration;

fn quick_server(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A service that closes batches quickly so single requests don't wait
/// out the default window.
fn quick_config() -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

#[test]
fn pipelined_requests_on_one_socket_all_answer_correctly() {
    let server = quick_server(quick_config());
    let client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::new(0x7C9_0001);
    let messages: Vec<Vec<u8>> = (0..48).map(|i| rng.bytes(i * 11 % 400)).collect();

    // Submit everything before waiting for anything: the whole burst is
    // in flight on one socket at once.
    let pending: Vec<_> = messages
        .iter()
        .enumerate()
        .map(|(i, message)| {
            let (algorithm, output_len) = match i % 4 {
                0 => (WireAlgorithm::Sha3_256, 32),
                1 => (WireAlgorithm::Sha3_512, 64),
                2 => (WireAlgorithm::Shake128, 16 + i),
                _ => (WireAlgorithm::Shake256, 64),
            };
            client
                .submit(algorithm, message, output_len, None)
                .expect("submit")
        })
        .collect();
    for (i, pending) in pending.into_iter().enumerate() {
        let reply = pending.wait_digest().expect("digest");
        let message = &messages[i];
        let expected = match i % 4 {
            0 => Sha3_256::digest(message).to_vec(),
            1 => Sha3_512::digest(message).to_vec(),
            2 => Shake128::digest(message, 16 + i),
            _ => Shake256::digest(message, 64),
        };
        assert_eq!(reply, expected, "request #{i}");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 48);
    assert_eq!(report.worker_failures, 0);
}

#[test]
fn every_algorithm_round_trips_against_the_reference() {
    let server = quick_server(quick_config());
    let client = Client::connect(server.local_addr()).expect("connect");
    let message = b"the six FIPS 202 functions over the wire";
    for algorithm in WireAlgorithm::FIPS {
        let digest = client.digest(algorithm, message).expect("digest");
        let expected = match algorithm {
            WireAlgorithm::Sha3_224 => krv_sha3::Sha3_224::digest(message).to_vec(),
            WireAlgorithm::Sha3_256 => Sha3_256::digest(message).to_vec(),
            WireAlgorithm::Sha3_384 => krv_sha3::Sha3_384::digest(message).to_vec(),
            WireAlgorithm::Sha3_512 => Sha3_512::digest(message).to_vec(),
            WireAlgorithm::Shake128 => Shake128::digest(message, 32),
            WireAlgorithm::Shake256 => Shake256::digest(message, 32),
            other => unreachable!("{} is not FIPS", other.name()),
        };
        assert_eq!(digest, expected, "{}", algorithm.name());
    }
}

#[test]
fn expired_deadline_maps_to_a_deadline_error_response() {
    let server = quick_server(quick_config());
    let client = Client::connect(server.local_addr()).expect("connect");
    let error = client
        .hash(
            WireAlgorithm::Sha3_256,
            b"doomed",
            32,
            Some(Duration::from_micros(1)),
        )
        .expect_err("deadline must expire");
    match error {
        ClientError::Remote(remote) => assert_eq!(remote.code, ErrorCode::Deadline),
        other => panic!("expected a remote DEADLINE error, got {other:?}"),
    }
}

#[test]
fn a_full_admission_queue_maps_to_busy_not_a_dropped_connection() {
    // Queue bound 2 and a 5 s window: the batch (8 slots) cannot close,
    // so the third in-flight submission is deterministically refused.
    let server = quick_server(ServerConfig {
        service: ServiceConfig {
            queue_capacity: 2,
            max_wait: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let client = Client::connect(server.local_addr()).expect("connect");
    let first = client
        .submit(WireAlgorithm::Sha3_256, b"one", 32, None)
        .expect("submit");
    let second = client
        .submit(WireAlgorithm::Sha3_256, b"two", 32, None)
        .expect("submit");
    let refused = client
        .submit(WireAlgorithm::Sha3_256, b"three", 32, None)
        .expect("submit")
        .wait_digest()
        .expect_err("queue is full");
    match refused {
        ClientError::Remote(remote) => {
            assert_eq!(remote.code, ErrorCode::Busy);
            assert!(remote.detail.contains("queue"), "{}", remote.detail);
        }
        other => panic!("expected BUSY, got {other:?}"),
    }
    // The connection survived the rejection; shutdown drains the two
    // queued requests and their responses still arrive.
    let server_report = std::thread::spawn(move || server.shutdown());
    assert_eq!(
        first.wait_digest().expect("drained"),
        Sha3_256::digest(b"one")
    );
    assert_eq!(
        second.wait_digest().expect("drained"),
        Sha3_256::digest(b"two")
    );
    let report = server_report.join().expect("shutdown thread");
    assert_eq!(report.completed, 2);
    assert_eq!(report.rejected, 1);
}

#[test]
fn the_per_connection_window_refuses_the_excess_with_busy() {
    // Window of 4 against a queue that cannot drain (5 s batching window
    // on an 8-slot pool): the fifth in-flight request must bounce off
    // the connection window before touching the queue.
    let server = quick_server(ServerConfig {
        max_in_flight: 4,
        service: ServiceConfig {
            max_wait: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let client = Client::connect(server.local_addr()).expect("connect");
    let held: Vec<_> = (0..4)
        .map(|i| {
            client
                .submit(WireAlgorithm::Sha3_256, &[i as u8; 16], 32, None)
                .expect("submit")
        })
        .collect();
    let refused = client
        .submit(WireAlgorithm::Sha3_256, b"excess", 32, None)
        .expect("submit")
        .wait_digest()
        .expect_err("window is full");
    match refused {
        ClientError::Remote(remote) => {
            assert_eq!(remote.code, ErrorCode::Busy);
            assert!(remote.detail.contains("window"), "{}", remote.detail);
        }
        other => panic!("expected BUSY, got {other:?}"),
    }
    let server_report = std::thread::spawn(move || server.shutdown());
    for pending in held {
        pending.wait_digest().expect("held requests drain");
    }
    let report = server_report.join().expect("shutdown thread");
    assert_eq!(report.completed, 4);
}

#[test]
fn stats_round_trip_reflects_served_requests() {
    let server = quick_server(quick_config());
    let client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..5u8 {
        client
            .digest(WireAlgorithm::Sha3_256, &[i; 24])
            .expect("digest");
    }
    let remote = client.stats().expect("stats over the wire");
    assert_eq!(remote.submitted, 5);
    assert_eq!(remote.completed, 5);
    assert_eq!(remote.rejected, 0);
    assert_eq!(remote.e2e_ns.count, 5);
    assert!(remote.e2e_ns.p50 <= remote.e2e_ns.p99);
    // The wire snapshot is the server's own snapshot, field for field
    // (counters cannot move between the two calls: this client is the
    // only traffic source and it is idle), except the in-process pass
    // counter STATS does not carry.
    let local = server.metrics();
    assert!(local.simulator_passes > 0);
    assert_eq!(
        remote,
        MetricsSnapshot {
            simulator_passes: 0,
            ..local
        }
    );
}

#[test]
fn sharded_stats_round_trip_is_the_exact_merged_snapshot() {
    // 3 shards behind 2 I/O threads: many clients spread their traffic
    // over every shard, then one STATS request must return the merged
    // cluster snapshot — identical, field for field, to the server's
    // own merge, and its counters must be the per-shard sums.
    let server = quick_server(ServerConfig {
        shards: 3,
        ..quick_config()
    });
    let addr = server.local_addr();
    let handles: Vec<_> = (0..12u8)
        .map(|t| {
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("connect");
                let mut rng = Rng::new(0x54A7_0000 + u64::from(t));
                for i in 0..6usize {
                    let message = rng.bytes(i * 53 % 300);
                    assert_eq!(
                        client
                            .digest(WireAlgorithm::Sha3_256, &message)
                            .expect("digest"),
                        Sha3_256::digest(&message),
                        "client {t} request {i}"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let client = Client::connect(addr).expect("stats connection");
    let remote = client.stats().expect("stats over the wire");
    let local = server.metrics();
    assert_eq!(
        remote,
        MetricsSnapshot {
            simulator_passes: 0,
            ..local
        },
        "wire snapshot differs from the local merge (bar the in-process pass counter)"
    );

    let shards = server.shard_metrics();
    assert_eq!(shards.len(), 3);
    assert_eq!(remote.submitted, shards.iter().map(|s| s.submitted).sum());
    assert_eq!(remote.completed, shards.iter().map(|s| s.completed).sum());
    assert_eq!(
        remote.e2e_ns.count,
        shards.iter().map(|s| s.e2e_ns.count).sum::<u64>()
    );
    assert_eq!(remote.completed, 72);
    assert!(
        shards.iter().all(|s| s.completed > 0),
        "12 clients must cover all 3 shards: {:?}",
        shards.iter().map(|s| s.completed).collect::<Vec<_>>()
    );
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.completed, 72);
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request_before_closing() {
    let server = quick_server(quick_config());
    let client = Client::connect(server.local_addr()).expect("connect");
    let mut rng = Rng::new(0xD2A1_4EED);
    let messages: Vec<Vec<u8>> = (0..24).map(|_| rng.bytes(800)).collect();
    let pending: Vec<_> = messages
        .iter()
        .map(|m| {
            client
                .submit(WireAlgorithm::Shake128, m, 32, None)
                .expect("submit")
        })
        .collect();
    // A stats request after the burst: its reply proves the server has
    // read (and admitted) everything submitted before it on this socket.
    client.stats().expect("stats");

    let report = server.shutdown();
    for (message, pending) in messages.iter().zip(pending) {
        let digest = pending
            .wait_digest()
            .expect("in-flight requests drain with responses, not a dropped socket");
        assert_eq!(digest, Shake128::digest(message, 32));
    }
    assert_eq!(report.completed, 24, "all in-flight requests completed");
}

#[test]
fn requests_after_shutdown_are_refused_and_new_connections_fail() {
    let server = quick_server(quick_config());
    let addr = server.local_addr();
    let client = Client::connect(addr).expect("connect");
    client
        .digest(WireAlgorithm::Sha3_256, b"before")
        .expect("served");
    server.shutdown();
    // The old connection is closed and a fresh request on it fails.
    let outcome = client.digest(WireAlgorithm::Sha3_256, b"after");
    assert!(outcome.is_err(), "socket is closed: {outcome:?}");
    // A fresh connection is refused or immediately closed — the daemon
    // is gone, not wedged.
    if let Ok(late) = Client::connect(addr) {
        assert!(late.digest(WireAlgorithm::Sha3_256, b"late").is_err());
    }
}

#[test]
fn an_idle_connection_is_closed_and_the_daemon_keeps_serving() {
    let server = quick_server(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..quick_config()
    });
    let idle = Client::connect(server.local_addr()).expect("connect");
    idle.digest(WireAlgorithm::Sha3_256, b"warm")
        .expect("served");
    std::thread::sleep(Duration::from_millis(400));
    // The server closed the idle socket; the next call fails locally.
    let outcome = idle.digest(WireAlgorithm::Sha3_256, b"stale");
    assert!(outcome.is_err(), "idle connection closed: {outcome:?}");
    // A fresh connection still serves.
    let fresh = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        fresh
            .digest(WireAlgorithm::Sha3_256, b"abc")
            .expect("served"),
        Sha3_256::digest(b"abc")
    );
}

#[test]
fn many_connections_share_the_daemon() {
    let server = quick_server(quick_config());
    let addr = server.local_addr();
    let handles: Vec<_> = (0..6u8)
        .map(|t| {
            std::thread::spawn(move || {
                let client = Client::connect(addr).expect("connect");
                let mut rng = Rng::new(0xC0_0000 + u64::from(t));
                for i in 0..8usize {
                    let message = rng.bytes(i * 37 % 256);
                    assert_eq!(
                        client
                            .digest(WireAlgorithm::Sha3_256, &message)
                            .expect("digest"),
                        Sha3_256::digest(&message),
                        "thread {t} request {i}"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 48);
}
