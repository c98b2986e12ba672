//! The traced run: per-layer metrics on the same generated inputs.
//!
//! Each layer is measured from outside, with spans recorded by the
//! benchmark around its calls into that layer's crate:
//!
//! * `krv-server` — the workload's latency phase over loopback, traced
//!   and then untraced (their difference is the tracing overhead), and
//!   the error responses by code;
//! * `krv-service` — the same seeded stream at the same rate submitted
//!   straight into an in-process `Service`, timed by each completion's
//!   `RequestTiming` and the service's own counters;
//! * `krv-sha3`, `krv-core`, `krv-native`, `krv-kyber`, `krv-keccak` —
//!   direct calls into each crate's public functions.
//!
//! The spans and a per-layer table are written to
//! `out/trace-<workload>-seed<seed>.json` beside this package's manifest.

use crate::cases::{flat_framing, Case, Class, Expect, Op, Reference, CUSTOMIZATION, XOF_LEN};
use crate::drive::sleep_until;
use crate::stats::{median, windowed, Outcome, PoissonSchedule, Quantiles, Tally};
use crate::trace::Tracer;
use crate::workload::{
    capacity_phase, latency_phase, stream_split, CapacityFigures, Metric, Traffic, Workload,
    DEADLINE, LATENCY_SESSIONS, STREAM_PROBE_EVERY,
};
use krv_core::EnginePool;
use krv_keccak::KeccakState;
use krv_kyber::{
    ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, run_kem_job, KemJob, KemOp, KyberParams,
};
use krv_native::NativeBackend;
use krv_server::WireAlgorithm;
use krv_server::{Client, Server};
use krv_service::{HashRequest, KemRequest, RequestTiming, Service, ServiceConfig, StreamRequest};
use krv_sha3::tree::TreeMode;
use krv_sha3::{
    drive_stream, hash_batch, BatchRequest, PermutationBackend, ReferenceBackend, SpongeParams,
    SpongeState, StreamItem, StreamOp,
};
use krv_testkit::Rng;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the traced run measured.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Outcomes of every wire and in-process operation.
    pub tally: Tally,
    /// Mirror mismatches the daemon and the in-process service reported.
    pub mirror_mismatches: u64,
    /// The per-layer table and other detail lines.
    pub notes: Vec<String>,
}

/// Shares of `--seconds`: untraced capacity, traced latency, untraced
/// latency, in-process latency; the rest goes to the direct calls.
const SHARES: [f64; 4] = [0.15, 0.2, 0.2, 0.2];
/// Direct-call layers timed; they split the remaining time.
const DIRECT_LAYERS: u32 = 9;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Calls `body` for `budget` (at least three times) and returns the
/// median call time in ns. The whole loop is one span: per-call spans
/// of sub-microsecond calls would crowd the request spans out of the
/// span buffer.
fn time_calls(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    mut body: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed() < budget {
        let t0 = Instant::now();
        body();
        times.push(t0.elapsed().as_nanos() as f64);
    }
    tracer.span(name, 0, 0, start, Instant::now());
    median(&times)
}

/// A backend that counts the states it permutes.
struct Counting(u64);

impl PermutationBackend for Counting {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        self.0 += states.len() as u64;
        ReferenceBackend::new().permute_all(states);
    }
}

/// Permutations per main-class operation, counted exactly.
fn perms_per_op(workload: Workload, traffic: &Traffic) -> f64 {
    let mut counting = Counting(0);
    let mut ops = 0u64;
    for case in traffic.cases.iter().filter(|c| workload.is_main(c.class)) {
        ops += 1;
        match &case.op {
            Op::Hash {
                algorithm,
                message,
                output_len,
            } => {
                hash_batch(
                    algorithm.params(),
                    &mut counting,
                    &[BatchRequest::new(message, *output_len)],
                );
            }
            Op::Keygen { set, d, z } => {
                run_job(set.params(), KemOp::Keygen { d: *d, z: *z }, &mut counting)
            }
            Op::Encaps { set, ek, m } => run_job(
                set.params(),
                KemOp::Encaps {
                    ek: ek.clone(),
                    m: *m,
                },
                &mut counting,
            ),
            Op::Decaps { set, dk, ct } => run_job(
                set.params(),
                KemOp::Decaps {
                    dk: dk.clone(),
                    ct: ct.clone(),
                },
                &mut counting,
            ),
        }
    }
    if workload == Workload::StreamBulk {
        // One latency-phase `ABSORB` frame on each session.
        for algorithm in LATENCY_SESSIONS {
            let (params, prefix, _) = flat_framing(algorithm);
            let mut state = SpongeState::new(params);
            state.absorb_with(&mut ReferenceBackend::new(), &prefix);
            state.absorb_with(&mut counting, &traffic.chunks[0]);
            ops += 1;
        }
    }
    counting.0 as f64 / ops.max(1) as f64
}

fn run_job(params: KyberParams, op: KemOp, backend: &mut Counting) {
    let mut job = KemJob::new(params, op).expect("generated inputs are valid");
    run_kem_job(&mut job, backend);
}

/// One in-process completion: its class, outcome and timing.
struct Done {
    class: Class,
    outcome: Outcome,
    /// When the request was handed to the service.
    submitted: Instant,
    timing: Option<RequestTiming>,
}

/// Submits one case to the in-process service; `done` runs with the
/// checked outcome on completion (at once if admission refuses it).
fn submit_in_process(
    service: &Service,
    case: &Case,
    done: impl FnOnce(Outcome, Option<RequestTiming>) + Send + 'static,
) {
    let check = |ok: bool| if ok { Outcome::Ok } else { Outcome::Mismatch };
    let expect = case.expect.clone();
    match &case.op {
        Op::Hash {
            algorithm,
            message,
            output_len,
        } => {
            let request = HashRequest::new(message.clone(), algorithm.params(), *output_len)
                .with_deadline(DEADLINE);
            match service.submit(request) {
                Ok(ticket) => ticket.on_complete(move |c| {
                    let outcome = match (&c.result, &expect) {
                        (Ok(bytes), Expect::Digest(want)) => check(bytes == want),
                        (Err(krv_service::RequestError::TimedOut), _) => Outcome::Deadline,
                        (Err(_), _) => Outcome::OtherError,
                        _ => Outcome::Mismatch,
                    };
                    done(outcome, Some(c.timing));
                }),
                Err(_) => done(Outcome::Busy, None),
            }
        }
        op => {
            let request = match op {
                Op::Keygen { set, d, z } => KemRequest::keygen(set.params(), *d, *z),
                Op::Encaps { set, ek, m } => KemRequest::encaps(set.params(), ek.clone(), *m),
                Op::Decaps { set, dk, ct } => {
                    KemRequest::decaps(set.params(), dk.clone(), ct.clone())
                }
                Op::Hash { .. } => unreachable!("handled above"),
            };
            match service.submit_kem(request.with_deadline(DEADLINE)) {
                Ok(ticket) => ticket.on_complete(move |c| {
                    use krv_kyber::KemResult as R;
                    let outcome = match (&c.result, &expect) {
                        (Ok(R::Keygen { ek, dk }), Expect::Keys { ek: e, dk: d }) => {
                            check(ek == e && dk == d)
                        }
                        (
                            Ok(R::Encaps { ct, shared_secret }),
                            Expect::Ciphertext { ct: c, secret },
                        ) => check(ct == c && shared_secret == secret),
                        (Ok(R::Decaps { shared_secret }), Expect::Secret(secret)) => {
                            check(shared_secret == secret)
                        }
                        (Err(krv_service::KemRequestError::TimedOut), _) => Outcome::Deadline,
                        (Err(_), _) => Outcome::OtherError,
                        _ => Outcome::Mismatch,
                    };
                    done(outcome, Some(c.timing));
                }),
                Err(_) => done(Outcome::Busy, None),
            }
        }
    }
}

/// The latency phase's one-shot stream, at the same rate and seed,
/// submitted straight into the in-process service (arrivals for which
/// `only` is false are skipped). Completions are checked by callback,
/// so the generator never blocks.
fn in_process_cases(
    service: &Service,
    cases: &[Case],
    rate: f64,
    seed: u64,
    duration: Duration,
    only: impl Fn(usize) -> bool,
) -> Vec<Done> {
    let (tx, rx) = mpsc::channel::<(usize, Done)>();
    let start = Instant::now();
    for (i, offset) in PoissonSchedule::new(seed, rate).enumerate() {
        if offset >= duration {
            break;
        }
        if !only(i) {
            continue;
        }
        sleep_until(start + offset);
        let case = &cases[i % cases.len()];
        let (tx, class, submitted) = (tx.clone(), case.class, Instant::now());
        submit_in_process(service, case, move |outcome, timing| {
            let _ = tx.send((
                i,
                Done {
                    class,
                    outcome,
                    submitted,
                    timing,
                },
            ));
        });
    }
    drop(tx);
    let mut done: Vec<(usize, Done)> = rx.into_iter().collect();
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, d)| d).collect()
}

/// One operation of an in-process chain: submit, wait, check.
fn chain_op(
    service: &Service,
    request: StreamRequest,
) -> (Done, Option<krv_service::StreamOutput>) {
    let submitted = Instant::now();
    let done = |outcome, timing| Done {
        class: Class::Main,
        outcome,
        submitted,
        timing,
    };
    let Ok(ticket) = service.submit_stream(request) else {
        return (done(Outcome::Busy, None), None);
    };
    let completion = ticket.wait();
    match completion.result {
        Ok(output) => (done(Outcome::Ok, Some(completion.timing)), Some(output)),
        Err(_) => (done(Outcome::OtherError, Some(completion.timing)), None),
    }
}

/// `stream_bulk`'s in-process sessions: one sponge state per latency
/// session algorithm through the streaming lane, fed the latency
/// phase's chunks at their scheduled times with one operation in flight
/// per session (as a wire session serializes its frames), then
/// finalized and checked against the reference.
fn in_process_chains(
    service: &Service,
    chunks: &[Vec<u8>],
    rate: f64,
    seed: u64,
    duration: Duration,
    probe_every: usize,
) -> Vec<Done> {
    // Replay the wire schedule: which arrivals are absorbs, for which
    // session, with which chunk.
    let sessions = LATENCY_SESSIONS.len();
    let mut pick = Rng::new(seed ^ 0xC4_0A4C);
    let start = Instant::now();
    let mut plans: Vec<Vec<(Instant, usize)>> = vec![Vec::new(); sessions];
    let mut absorbs = 0usize;
    for (i, offset) in PoissonSchedule::new(seed, rate).enumerate() {
        if offset >= duration {
            break;
        }
        if probe_every > 0 && i % probe_every == probe_every - 1 {
            continue;
        }
        plans[absorbs % sessions].push((start + offset, pick.below(chunks.len())));
        absorbs += 1;
    }
    let chain = |algorithm: WireAlgorithm, plan: &[(Instant, usize)]| {
        let mut out = Vec::with_capacity(plan.len() + 1);
        let (params, prefix, suffix) = flat_framing(algorithm);
        let mut state = Box::new(SpongeState::new(params));
        state.absorb_with(&mut ReferenceBackend::new(), &prefix);
        let mut reference = Reference::new(algorithm);
        for &(due, chunk) in plan {
            sleep_until(due);
            reference.update(&chunks[chunk]);
            let (done, output) =
                chain_op(service, StreamRequest::absorb(state, chunks[chunk].clone()));
            out.push(done);
            let Some(output) = output else { return out };
            state = output.state;
        }
        let (mut done, output) = chain_op(service, StreamRequest::finalize(state, suffix, XOF_LEN));
        if output.is_some_and(|o| o.output != reference.finish()) {
            done.outcome = Outcome::Mismatch;
        }
        done.class = Class::Probe;
        out.push(done);
        out
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = LATENCY_SESSIONS
            .iter()
            .zip(&plans)
            .map(|(&algorithm, plan)| scope.spawn(move || chain(algorithm, plan)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session chain panicked"))
            .collect()
    })
}

/// The direct calls into each crate, on the workload's own inputs.
fn direct_layers(
    workload: Workload,
    traffic: &Traffic,
    config: &ServiceConfig,
    budget: Duration,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let slots = config.batch_slots();
    let (params, messages, output_len): (SpongeParams, Vec<Vec<u8>>, usize) = match workload {
        Workload::StreamBulk => {
            let mode = TreeMode::krv_tree256();
            let leaves = traffic
                .chunks
                .iter()
                .flat_map(|c| c.chunks(mode.block_size()));
            (
                mode.leaf_params(),
                leaves.take(slots).map(<[u8]>::to_vec).collect(),
                mode.leaf_len(),
            )
        }
        _ => {
            let messages = traffic.cases.iter().filter_map(|c| match &c.op {
                Op::Hash { message, .. } => Some(message.clone()),
                _ => None,
            });
            (SpongeParams::sha3(256), messages.take(slots).collect(), 32)
        }
    };
    let requests: Vec<BatchRequest<'_>> = messages
        .iter()
        .map(|m| BatchRequest::new(m, output_len))
        .collect();
    let mut pool = EnginePool::new(config.kernel, config.sn, config.workers);
    let mut native = NativeBackend::new();
    let batch_sim = time_calls(tracer, "sha3.hash_batch/sim", budget, || {
        black_box(hash_batch(params, &mut pool, black_box(&requests)));
    });
    let batch_native = time_calls(tracer, "sha3.hash_batch/native", budget, || {
        black_box(hash_batch(params, &mut native, black_box(&requests)));
    });

    let mut rng = Rng::new(0x5EED);
    let stream_data: Vec<Vec<u8>> = (0..2).map(|_| rng.bytes(128 << 10)).collect();
    let stream_ns = time_calls(tracer, "sha3.drive_stream/sim", budget, || {
        let mut states: Vec<SpongeState> = (0..2)
            .map(|_| SpongeState::new(SpongeParams::shake(256)))
            .collect();
        let mut items: Vec<StreamItem<'_>> = states
            .iter_mut()
            .zip(&stream_data)
            .map(|(state, data)| StreamItem {
                state,
                op: StreamOp::absorb(data),
            })
            .collect();
        drive_stream(&mut pool, &mut items);
    });
    let stream_mib = (2 * (128 << 10)) as f64 / (1u64 << 20) as f64;
    let tree_message = rng.bytes(1 << 20);
    let tree_ns = time_calls(tracer, "sha3.tree_digest/sim", budget, || {
        black_box(TreeMode::krv_tree256().digest(&mut pool, &tree_message, CUSTOMIZATION, XOF_LEN));
    });

    let mut states = vec![KeccakState::new(); slots];
    let pass_ns = time_calls(tracer, "core.permute_slice", budget, || {
        pool.permute_slice(&mut states).expect("a healthy pool");
    });
    let pool_metrics = pool
        .last_metrics()
        .expect("the pool has dispatched")
        .clone();
    let cycles_per_pass = pool_metrics.total_cycles as f64 / pool_metrics.passes.max(1) as f64;

    let mut native_states = vec![KeccakState::new(); 64];
    let native_ns = time_calls(tracer, "native.permute_all", budget, || {
        native.permute_all(black_box(&mut native_states));
    }) / native_states.len() as f64;

    let set = KyberParams::KYBER768;
    let (d, z, m) = ([1u8; 32], [2u8; 32], [3u8; 32]);
    let (ek, dk) = ml_kem_keygen(set, &d, &z, native);
    let (ct, _) = ml_kem_encaps(set, &ek, &m, native).expect("a generated key is canonical");
    let third = budget / 3;
    let keygen = time_calls(tracer, "kyber.keygen", third, || {
        black_box(ml_kem_keygen(set, &d, &z, native));
    });
    let encaps = time_calls(tracer, "kyber.encaps", third, || {
        black_box(ml_kem_encaps(set, &ek, &m, native).expect("valid key"));
    });
    let decaps = time_calls(tracer, "kyber.decaps", third, || {
        black_box(ml_kem_decaps(set, &dk, &ct, native).expect("valid lengths"));
    });

    let mut state = KeccakState::new();
    let reference_ns = time_calls(tracer, "keccak.keccak_f1600", budget, || {
        for _ in 0..64 {
            krv_keccak::keccak_f1600(black_box(&mut state));
        }
    }) / 64.0;

    vec![
        ("sha3.hash_batch_sim_us", batch_sim / 1e3, "us"),
        ("sha3.hash_batch_native_us", batch_native / 1e3, "us"),
        (
            "sha3.stream_mib_per_s",
            stream_mib / (stream_ns / 1e9),
            "MiB/s",
        ),
        ("sha3.tree_mib_per_s", 1.0 / (tree_ns / 1e9), "MiB/s"),
        (
            "sha3.perms_per_op",
            perms_per_op(workload, traffic),
            "perm/op",
        ),
        ("core.pass_us", pass_ns / 1e3, "us"),
        ("core.sim_cycles_per_pass", cycles_per_pass, "cycles"),
        (
            "core.host_ns_per_sim_cycle",
            pass_ns / pool_metrics.total_cycles.max(1) as f64,
            "ns",
        ),
        ("native.ns_per_perm", native_ns, "ns"),
        ("native.lane_width", native.width().lanes() as f64, "lanes"),
        ("kyber.keygen_us", keygen / 1e3, "us"),
        ("kyber.encaps_us", encaps / 1e3, "us"),
        ("kyber.decaps_us", decaps / 1e3, "us"),
        ("keccak.ref_ns_per_perm", reference_ns, "ns"),
    ]
}

/// The traced run of `workload`.
///
/// # Errors
///
/// A failure to bind or connect, or to write the trace file.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let traffic = Traffic::generate(workload, seed);
    let part = |i: usize| Duration::from_secs_f64(seconds * SHARES[i]);
    let direct_budget =
        Duration::from_secs_f64(seconds * (1.0 - SHARES.iter().sum::<f64>())) / DIRECT_LAYERS;
    let config = workload.server_config();
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // krv-server: untraced capacity, traced latency, then the same
    // latency phase untraced.
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut untraced_tracer = Tracer::new(false);
    let (cap, flat_mib, tree_mib) = if workload == Workload::StreamBulk {
        let (flat, tree) = stream_split(&client, &traffic, part(0), &mut untraced_tracer);
        let cap = CapacityFigures::mean(&flat, &tree);
        (cap, flat.mib_per_s, tree.mib_per_s)
    } else {
        let cap = capacity_phase(workload, &client, &traffic, part(0), &mut untraced_tracer);
        (cap, 0.0, 0.0)
    };
    tally.merge(&cap.tally);
    let traced = latency_phase(workload, &client, &traffic, seed, part(1), &mut tracer);
    let untraced = latency_phase(
        workload,
        &client,
        &traffic,
        seed,
        part(2),
        &mut untraced_tracer,
    );
    let mut wire = traced.tally;
    wire.merge(&untraced.tally);
    tally.merge(&wire);
    drop(client);
    let daemon = server.shutdown();
    let main = |class: Class| workload.is_main(class);
    let overhead_us = (mean(&traced.latencies(main)) - mean(&untraced.latencies(main))) * 1e3;
    let wire_rtt_ms = untraced.mean_rtt_ms(main);
    let late = Quantiles::new(traced.late_ms.clone());

    // krv-service: the same stream in process.
    let service = Service::start(config.service);
    let rate = workload.rate();
    let in_process_start = Instant::now();
    let done = if workload == Workload::StreamBulk {
        // The sessions and the probe hashes run side by side, as on the
        // wire.
        let probe_every = STREAM_PROBE_EVERY;
        std::thread::scope(|scope| {
            let probes = scope.spawn(|| {
                in_process_cases(&service, &traffic.cases, rate, seed, part(3), |i| {
                    i % probe_every == probe_every - 1
                })
            });
            let mut done =
                in_process_chains(&service, &traffic.chunks, rate, seed, part(3), probe_every);
            done.extend(probes.join().expect("probe generator panicked"));
            done
        })
    } else {
        in_process_cases(&service, &traffic.cases, rate, seed, part(3), |_| true)
    };
    tracer.span("service.in_process", 0, 0, in_process_start, Instant::now());
    let snapshot = service.shutdown();
    for d in &done {
        if let Some(t) = d.timing {
            let root = tracer.span("service.request", 0, 0, d.submitted, d.submitted + t.total);
            let dispatched = d.submitted + t.queue;
            tracer.span("service.queue", root, 0, d.submitted, dispatched);
            tracer.span(
                "service.dispatch",
                root,
                0,
                dispatched,
                dispatched + t.service,
            );
            tracer.span(
                "service.after_dispatch",
                root,
                0,
                dispatched + t.service,
                d.submitted + t.total,
            );
        }
    }
    let timings: Vec<RequestTiming> = done.iter().filter_map(|d| d.timing).collect();
    for d in &done {
        tally.record(d.outcome);
    }
    let queue = Quantiles::new(timings.iter().map(|t| us(t.queue)).collect());
    let dispatch = Quantiles::new(timings.iter().map(|t| us(t.service)).collect());
    let after = Quantiles::new(
        timings
            .iter()
            .map(|t| us(t.total.saturating_sub(t.queue + t.service)))
            .collect(),
    );
    let in_process_total_ms = mean(
        &done
            .iter()
            .filter(|d| main(d.class))
            .filter_map(|d| d.timing)
            .map(|t| t.total.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );

    // The other crates, called directly.
    let mut metrics: Vec<Metric> = vec![
        (
            "server.wire_us",
            (wire_rtt_ms - in_process_total_ms) * 1e3,
            "us",
        ),
        ("server.errors.busy", wire.busy as f64, "count"),
        ("server.errors.deadline", wire.deadline as f64, "count"),
        (
            "server.errors.other",
            (wire.other + wire.transport) as f64,
            "count",
        ),
        ("service.queue_p50_us", queue.at(0.5).unwrap_or(0.0), "us"),
        ("service.queue_p99_us", queue.at(0.99).unwrap_or(0.0), "us"),
        (
            "service.dispatch_p50_us",
            dispatch.at(0.5).unwrap_or(0.0),
            "us",
        ),
        (
            "service.after_dispatch_p50_us",
            after.at(0.5).unwrap_or(0.0),
            "us",
        ),
        (
            "service.after_dispatch_p99_us",
            after.at(0.99).unwrap_or(0.0),
            "us",
        ),
        ("service.batch_fill", snapshot.mean_batch_fill, "ratio"),
        ("service.batches", snapshot.batches as f64, "count"),
        (
            "service.kem_occupancy",
            snapshot.kem_hash_jobs as f64 / snapshot.kem_dispatches.max(1) as f64,
            "jobs/dispatch",
        ),
        ("service.mirrored", snapshot.mirrored as f64, "count"),
        (
            "service.mirror_mismatches",
            snapshot.mirror_mismatches as f64,
            "count",
        ),
        ("service.rejected", snapshot.rejected as f64, "count"),
        ("service.throttled", snapshot.throttled as f64, "count"),
        ("service.timeouts", snapshot.timeouts as f64, "count"),
        ("service.retries", snapshot.retries as f64, "count"),
    ];
    metrics.extend(direct_layers(
        workload,
        &traffic,
        &config.service,
        direct_budget,
        &mut tracer,
    ));
    let untraced_main = untraced.latencies(main);
    let untraced_probe = untraced.latencies(|class| class == Class::Probe);
    metrics.extend([
        ("e2e.ops_per_s", cap.ops_per_s, "1/s"),
        ("e2e.mib_per_s", cap.mib_per_s, "MiB/s"),
        ("e2e.p50_ms", windowed(&untraced_main, 0.50).value, "ms"),
        (
            "e2e.hash_p50_ms",
            windowed(&untraced_probe, 0.50).value,
            "ms",
        ),
        ("e2e.p99_ms", windowed(&untraced_main, 0.99).value, "ms"),
        (
            "e2e.hash_p99_ms",
            windowed(&untraced_probe, 0.99).value,
            "ms",
        ),
        ("gen.late_p99_ms", late.at(0.99).unwrap_or(0.0), "ms"),
        ("gen.sent", late.count() as f64, "count"),
        ("trace.overhead_us", overhead_us, "us"),
        ("stream.flat_mib_per_s", flat_mib, "MiB/s"),
        ("stream.tree_mib_per_s", tree_mib, "MiB/s"),
    ]);

    for (name, row) in tracer.layers() {
        notes.push(format!(
            "layer {name}: {} spans, {:.3} ms total, {:.3} ms self",
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    notes.push(format!(
        "wire mean RTT {wire_rtt_ms:.4} ms, in-process mean e2e {in_process_total_ms:.4} ms, tracing overhead {overhead_us:.2} us; {} queue samples",
        queue.count()
    ));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"overhead_us\":{overhead_us}",
        workload.name()
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
    std::fs::write(&path, tracer.to_json(&header)).map_err(|e| e.to_string())?;
    notes.push(format!("spans written to {}", path.display()));

    Ok(Traced {
        metrics,
        tally,
        mirror_mismatches: daemon.mirror_mismatches + snapshot.mirror_mismatches,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::reference_digest;

    #[test]
    fn counting_backend_counts_one_block_messages_once() {
        let mut counting = Counting(0);
        let digest = hash_batch(
            SpongeParams::sha3(256),
            &mut counting,
            &[BatchRequest::new(b"abc", 32)],
        );
        assert_eq!(counting.0, 1);
        assert_eq!(
            digest[0],
            reference_digest(WireAlgorithm::Sha3_256, b"abc", 32)
        );
    }
}
