//! The three workloads: their traffic, the daemon configuration they
//! run against, and the untraced end-to-end run.

use crate::cases::{
    finalize_len, hash_case, kem_case, kem_mix, probe_hash, session_params, small_hashes,
    stream_digest, Case, Class, STREAM_ALGORITHMS, XOF_LEN,
};
use crate::drive::{
    closed_loop, open_loop, stream_capacity, stream_latency, Capacity, Latency, StreamPool,
};
use crate::stats::{median, windowed, Outcome, Tally, Windowed};
use crate::trace::Tracer;
use krv_server::{Client, KemParameterSet, Server, ServerConfig, WireAlgorithm};
use krv_service::{ServiceConfig, TierPolicy};
use krv_testkit::Rng;
use std::time::{Duration, Instant};

/// The deadline every latency-phase hash and KEM request carries.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Share of `--seconds` given to the capacity phase (the rest is the
/// latency phase).
const CAPACITY_SHARE: f64 = 0.4;
/// Rounds of (capacity phase, latency phase) in one run. Capacity
/// figures are the median over rounds and latency samples are pooled,
/// so both sample the whole run rather than one stretch of it.
const ROUNDS: u32 = 3;

/// One-shot requests in the `hash_small` pool.
const HASH_POOL: usize = 4096;
/// `hash_small` closed-loop pipeline window.
const HASH_WINDOW: usize = 64;
/// `hash_small` open-loop rate, requests per second.
pub const HASH_RATE: f64 = 2_000.0;

/// KEM operations in the `kem_mixed` pool (plus one probe hash per
/// three).
const KEM_POOL: usize = 360;
/// `kem_mixed` closed-loop pipeline window.
const KEM_WINDOW: usize = 32;
/// `kem_mixed` open-loop rate, operations (KEM and hash) per second.
pub const KEM_RATE: f64 = 800.0;

/// Pool messages streamed by the `stream_bulk` capacity phase.
const STREAM_MESSAGES: usize = 2;
/// Length of each pool message.
const STREAM_MESSAGE_LEN: usize = 4 << 20;
/// Capacity-phase `ABSORB` frame size.
const STREAM_CHUNK: usize = 256 << 10;
/// Capacity-phase outstanding acks per session.
const STREAM_WINDOW: usize = 8;
/// Sessions streamed at a time in the capacity phase. Two concurrent
/// chains lock in or out of phase for seconds at a time (packed into
/// one pass, or dispatched alternately), which makes the per-frame cost
/// bimodal; one session at a time keeps the phase steady.
const STREAM_PARALLEL: usize = 1;
/// Latency-phase `ABSORB` frame size: small, so a frame's latency is
/// mostly the serving path rather than its few permutations.
const LATENCY_CHUNK: usize = 1 << 10;
/// Distinct latency-phase chunks.
const LATENCY_CHUNKS: usize = 32;
/// The sessions of the `stream_bulk` latency phase, fed in turn.
pub const LATENCY_SESSIONS: [WireAlgorithm; 2] = [WireAlgorithm::Shake256, WireAlgorithm::Kmac256];
/// `stream_bulk` open-loop rate, frames (absorbs and probes) per second.
pub const STREAM_RATE: f64 = 300.0;
/// Every third `stream_bulk` latency arrival is a probe hash.
pub const STREAM_PROBE_EVERY: usize = 3;
/// Probe hashes in the `kem_mixed`-style probe pool of `stream_bulk`.
const PROBE_POOL: usize = 256;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot FIPS 202 requests of about one permutation each.
    HashSmall,
    /// ML-KEM operations with small SHA3-256 hashes riding alongside.
    KemMixed,
    /// Pipelined multi-MiB streaming sessions.
    StreamBulk,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [
        Workload::HashSmall,
        Workload::KemMixed,
        Workload::StreamBulk,
    ];

    /// The CLI name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::HashSmall => "hash_small",
            Workload::KemMixed => "kem_mixed",
            Workload::StreamBulk => "stream_bulk",
        }
    }

    /// The workload of a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The daemon the workload runs against: one I/O thread, one shard,
    /// the default service (E64Lmul8, SN = 4, 2 workers, 500 µs
    /// `max_wait`) on the workload's tier.
    pub fn server_config(self) -> ServerConfig {
        let tier = match self {
            Workload::KemMixed => {
                TierPolicy::native().with_mirror_every(TierPolicy::RECOMMENDED_MIRROR_EVERY)
            }
            Workload::HashSmall | Workload::StreamBulk => TierPolicy::simulator(),
        };
        ServerConfig {
            service: ServiceConfig {
                tier,
                ..ServiceConfig::default()
            },
            io_threads: 1,
            shards: 1,
            ..ServerConfig::default()
        }
    }

    /// The open-loop rate of the latency phase.
    pub const fn rate(self) -> f64 {
        match self {
            Workload::HashSmall => HASH_RATE,
            Workload::KemMixed => KEM_RATE,
            Workload::StreamBulk => STREAM_RATE,
        }
    }

    /// Whether a case feeds the main latency figures (`p50_ms`,
    /// `p99_ms`): every hash in `hash_small`, the KEM operations or
    /// session frames elsewhere.
    pub fn is_main(self, class: Class) -> bool {
        self == Workload::HashSmall || class == Class::Main
    }
}

/// The seeded traffic of one workload.
pub struct Traffic {
    /// One-shot cases (hash requests, KEM operations, probe hashes).
    pub cases: Vec<Case>,
    /// Session messages (`stream_bulk` only).
    pub pool: Option<StreamPool>,
    /// Latency-phase session chunks (`stream_bulk` only).
    pub chunks: Vec<Vec<u8>>,
}

impl Traffic {
    /// Generates the workload's inputs and reference answers from
    /// `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6B72_765F_6265_6E63);
        match workload {
            Workload::HashSmall => Self {
                cases: small_hashes(&mut rng, HASH_POOL),
                pool: None,
                chunks: Vec::new(),
            },
            Workload::KemMixed => Self {
                cases: kem_mix(&mut rng, KEM_POOL),
                pool: None,
                chunks: Vec::new(),
            },
            Workload::StreamBulk => {
                let messages: Vec<Vec<u8>> = (0..STREAM_MESSAGES)
                    .map(|_| rng.bytes(STREAM_MESSAGE_LEN))
                    .collect();
                let digests = STREAM_ALGORITHMS
                    .iter()
                    .map(|&algorithm| {
                        messages
                            .iter()
                            .map(|m| {
                                let chunks: Vec<&[u8]> = m.chunks(STREAM_CHUNK).collect();
                                stream_digest(algorithm, &chunks)
                            })
                            .collect()
                    })
                    .collect();
                Self {
                    cases: (0..PROBE_POOL).map(|_| probe_hash(&mut rng)).collect(),
                    pool: Some(StreamPool { messages, digests }),
                    chunks: (0..LATENCY_CHUNKS)
                        .map(|_| rng.bytes(LATENCY_CHUNK))
                        .collect(),
                }
            }
        }
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one end-to-end run measured.
pub struct E2e {
    /// Every end-to-end metric.
    pub metrics: Vec<Metric>,
    /// Outcomes of every operation, all phases.
    pub tally: Tally,
    /// Mirror mismatches the daemon reported.
    pub mirror_mismatches: u64,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
}

/// What a capacity phase measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityFigures {
    /// Counted operations per wall second (median over groups).
    pub ops_per_s: f64,
    /// Counted payload MiB per wall second (median over groups).
    pub mib_per_s: f64,
    /// Service CPU microseconds per counted operation.
    pub service_cpu_us_per_op: f64,
    /// Outcomes of every operation attempted.
    pub tally: Tally,
}

impl CapacityFigures {
    fn of(cap: &Capacity) -> Self {
        Self {
            ops_per_s: cap.meter.ops_per_s(),
            mib_per_s: cap.meter.mib_per_s(),
            service_cpu_us_per_op: cap.meter.cpu_us_per_op(),
            tally: cap.tally,
        }
    }

    /// The median of each figure over `rounds`, with their tallies
    /// merged.
    pub fn median(rounds: &[Self]) -> Self {
        let of = |f: fn(&Self) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let mut tally = Tally::default();
        for round in rounds {
            tally.merge(&round.tally);
        }
        Self {
            ops_per_s: of(|r| r.ops_per_s),
            mib_per_s: of(|r| r.mib_per_s),
            service_cpu_us_per_op: of(|r| r.service_cpu_us_per_op),
            tally,
        }
    }

    /// The mean of two equal-length halves of a phase.
    pub fn mean(a: &Self, b: &Self) -> Self {
        let mut tally = a.tally;
        tally.merge(&b.tally);
        Self {
            ops_per_s: (a.ops_per_s + b.ops_per_s) / 2.0,
            mib_per_s: (a.mib_per_s + b.mib_per_s) / 2.0,
            service_cpu_us_per_op: (a.service_cpu_us_per_op + b.service_cpu_us_per_op) / 2.0,
            tally,
        }
    }
}

/// The capacity phase of `workload` against a running client. Counted
/// operations are the hash requests of `hash_small`, the KEM operations
/// of `kem_mixed` (not the probe hashes), and the `ABSORB` frames of
/// `stream_bulk`.
pub fn capacity_phase(
    workload: Workload,
    client: &Client,
    traffic: &Traffic,
    duration: Duration,
    tracer: &mut Tracer,
) -> CapacityFigures {
    match workload {
        Workload::HashSmall => CapacityFigures::of(&closed_loop(
            client,
            &traffic.cases,
            HASH_WINDOW,
            duration,
            |_| true,
            tracer,
        )),
        Workload::KemMixed => CapacityFigures::of(&closed_loop(
            client,
            &traffic.cases,
            KEM_WINDOW,
            duration,
            |case| case.class == Class::Main,
            tracer,
        )),
        Workload::StreamBulk => {
            let (flat, tree) = stream_split(client, traffic, duration, tracer);
            CapacityFigures::mean(&flat, &tree)
        }
    }
}

/// The two halves of the `stream_bulk` capacity phase: flat sessions
/// (SHAKE256 and KMAC256 in turn), then tree sessions.
pub fn stream_split(
    client: &Client,
    traffic: &Traffic,
    duration: Duration,
    tracer: &mut Tracer,
) -> (CapacityFigures, CapacityFigures) {
    let pool = traffic.pool.as_ref().expect("stream_bulk has a pool");
    let half = duration / 2;
    let mut run = |algorithms: &[usize]| {
        CapacityFigures::of(&stream_capacity(
            client,
            pool,
            algorithms,
            STREAM_PARALLEL,
            STREAM_CHUNK,
            STREAM_WINDOW,
            half,
            tracer,
        ))
    };
    let flat = run(&[0, 1]);
    let tree = run(&[2]);
    (flat, tree)
}

/// The latency phase of `workload` against a running client.
pub fn latency_phase(
    workload: Workload,
    client: &Client,
    traffic: &Traffic,
    seed: u64,
    duration: Duration,
    tracer: &mut Tracer,
) -> Latency {
    let rate = workload.rate();
    match workload {
        Workload::HashSmall | Workload::KemMixed => open_loop(
            client,
            &traffic.cases,
            rate,
            seed,
            duration,
            DEADLINE,
            tracer,
        ),
        Workload::StreamBulk => stream_latency(
            client,
            &LATENCY_SESSIONS,
            &traffic.chunks,
            &traffic.cases,
            STREAM_PROBE_EVERY,
            rate,
            seed,
            duration,
            DEADLINE,
            tracer,
        ),
    }
}

/// Splits `seconds` into the capacity and latency phase durations.
pub fn phase_durations(seconds: f64) -> (Duration, Duration) {
    let capacity = Duration::from_secs_f64(seconds * CAPACITY_SHARE);
    (capacity, Duration::from_secs_f64(seconds) - capacity)
}

fn quantile_note(label: &str, w: &Windowed) -> String {
    format!(
        "{label}: {:.4} ms over {} samples in {} windows{}",
        w.value,
        w.count,
        w.windows,
        if w.supported {
            ""
        } else {
            " (fewer than 10 samples beyond it)"
        }
    )
}

fn highest_note(label: &str, samples: &[f64]) -> String {
    let q = crate::stats::Quantiles::new(samples.to_vec());
    match q.highest_supported() {
        Some((p, value)) => format!(
            "{label}: highest percentile with 10 samples beyond it is p{} = {value:.4} ms (n = {})",
            p * 100.0,
            q.count()
        ),
        None => format!(
            "{label}: too few samples for any percentile (n = {})",
            q.count()
        ),
    }
}

/// The untraced end-to-end run: three rounds of capacity phase, then
/// latency phase, on one fresh daemon. `setup_s` is measured separately (see
/// [`setup_probe`]) and passed in.
pub fn run_e2e(workload: Workload, seed: u64, seconds: f64, setup_s: f64) -> E2e {
    let traffic = Traffic::generate(workload, seed);
    let (capacity, latency) = phase_durations(seconds);
    let server =
        Server::bind("127.0.0.1:0", workload.server_config()).expect("bind a loopback port");
    let client = Client::connect(server.local_addr()).expect("connect to the daemon");
    let mut tracer = Tracer::new(false);
    let mut rounds = Vec::new();
    let mut lat = Latency::default();
    for round in 0..ROUNDS {
        let cap = capacity_phase(workload, &client, &traffic, capacity / ROUNDS, &mut tracer);
        rounds.push(cap);
        let round_seed = seed.wrapping_add(u64::from(round));
        lat.append(latency_phase(
            workload,
            &client,
            &traffic,
            round_seed,
            latency / ROUNDS,
            &mut tracer,
        ));
    }
    let cap = CapacityFigures::median(&rounds);
    let mut tally = cap.tally;
    tally.merge(&lat.tally);
    drop(client);
    let report = server.shutdown();

    let main = lat.latencies(|class| workload.is_main(class));
    let probe = lat.latencies(|class| class == Class::Probe);
    let (p50, p99) = (windowed(&main, 0.50), windowed(&main, 0.99));
    let (h50, h99) = (windowed(&probe, 0.50), windowed(&probe, 0.99));
    let late = crate::stats::Quantiles::new(lat.late_ms.clone());
    let notes = vec![
        format!(
            "wall clock (not bounded): ops_per_s = {} 1/s, mib_per_s = {} MiB/s, p50_ms = {} ms, hash_p50_ms = {} ms",
            cap.ops_per_s, cap.mib_per_s, p50.value, h50.value
        ),
        quantile_note("p50", &p50),
        quantile_note("p99", &p99),
        quantile_note("hash_p50", &h50),
        quantile_note("hash_p99", &h99),
        highest_note("main class", &main),
        highest_note("probe hashes", &probe),
        format!(
            "generator lateness p99: {:.4} ms over {} sends",
            late.at(0.99).unwrap_or(0.0),
            late.count()
        ),
        format!(
            "outcomes: {} ok, {} busy, {} deadline, {} mismatch, {} transport, {} other; error_rate {}",
            tally.ok,
            tally.busy,
            tally.deadline,
            tally.mismatch,
            tally.transport,
            tally.other,
            tally.error_rate()
        ),
        format!(
            "daemon: {} completed, {} mirrored, {} mirror mismatches",
            report.completed, report.mirrored, report.mirror_mismatches
        ),
    ];
    E2e {
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("service_cpu_us_per_op", cap.service_cpu_us_per_op, "us"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
        tally,
        mirror_mismatches: report.mirror_mismatches,
        notes,
    }
}

/// `VmHWM` of this process, in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One request of every kind the workload uses.
fn first_cases(workload: Workload, rng: &mut Rng) -> Vec<Case> {
    match workload {
        Workload::HashSmall => WireAlgorithm::FIPS
            .iter()
            .map(|&algorithm| hash_case(algorithm, rng.bytes(200), Class::Main))
            .collect(),
        Workload::KemMixed => {
            let mut cases: Vec<Case> = KemParameterSet::ALL
                .iter()
                .flat_map(|&set| (0..3).map(move |kind| (set, kind)))
                .map(|(set, kind)| kem_case(rng, set, kind))
                .collect();
            cases.push(probe_hash(rng));
            cases
        }
        Workload::StreamBulk => vec![probe_hash(rng)],
    }
}

/// CPU time this process has used so far, all threads, at nanosecond
/// resolution (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) through
    // a pointer to a live, writable local, and keeps no reference to it.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Set-up cost of a fresh daemon in this (fresh) process, from just
/// before `Server::bind` to the first verified reply of every request
/// kind the workload uses, as `(cpu_s, wall_s)`: the CPU time all
/// threads spent, and the wall-clock time. Inputs and reference answers
/// are generated before the clocks start.
///
/// # Errors
///
/// A description of the first reply that failed its check.
pub fn setup_probe(workload: Workload, seed: u64) -> Result<(f64, f64), String> {
    let mut rng = Rng::new(seed ^ 0x5E70_0000);
    let cases = first_cases(workload, &mut rng);
    let message = rng.bytes(4096);
    let sessions: Vec<(WireAlgorithm, Vec<u8>)> = match workload {
        Workload::StreamBulk => STREAM_ALGORITHMS
            .iter()
            .map(|&a| (a, stream_digest(a, &[&message])))
            .collect(),
        _ => Vec::new(),
    };
    let cpu_start = process_cpu_secs();
    let start = Instant::now();
    let server =
        Server::bind("127.0.0.1:0", workload.server_config()).map_err(|e| e.to_string())?;
    let client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let pending: Vec<_> = cases
        .iter()
        .map(|case| case.submit(&client, None).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for (case, pending) in cases.iter().zip(pending) {
        let outcome = case.check(&pending.wait());
        if outcome != Outcome::Ok {
            return Err(format!("first reply check failed: {outcome:?}"));
        }
    }
    // The sessions run side by side, one thread each, so set-up pays
    // one session's round trips rather than the sum.
    let run_session = |algorithm: WireAlgorithm, expect: &[u8]| -> Result<(), String> {
        let session = client
            .open_session(algorithm, session_params(algorithm))
            .map_err(|e| e.to_string())?;
        session.absorb(&message).map_err(|e| e.to_string())?;
        session
            .finalize(finalize_len(algorithm))
            .map_err(|e| e.to_string())?;
        let digest = session.squeeze(XOF_LEN).map_err(|e| e.to_string())?;
        if digest != expect {
            return Err(format!(
                "first {} session digest mismatch",
                algorithm.name()
            ));
        }
        session.close().map_err(|e| e.to_string())
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|(algorithm, expect)| scope.spawn(|| run_session(*algorithm, expect)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("set-up session thread panicked"))
    })?;
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_secs() - cpu_start;
    drop(client);
    server.shutdown();
    Ok((cpu, wall))
}
