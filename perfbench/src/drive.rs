//! Driving the daemon over one client connection: the closed-loop
//! capacity phase, the open-loop latency phase, and the two session
//! phases of `stream_bulk`. Every reply is checked against its
//! reference answer as it is collected.

use crate::cases::{error_outcome, finalize_len, session_params, Case, Class, Reference, XOF_LEN};
use crate::stats::{median, Outcome, PoissonSchedule, Tally};
use crate::trace::Tracer;
use krv_server::{
    Client, ClientError, PendingReply, Reply, Response, StreamingSession, WireAlgorithm,
};
use krv_testkit::Rng;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Groups a capacity phase's completions are split into; its rates are
/// the median over them.
const RATE_GROUPS: usize = 16;
/// Resolution of a capacity phase's completion record.
const BUCKET: Duration = Duration::from_millis(1);

/// The counted completions of a capacity phase, bucketed by arrival
/// time at 1 ms, so its memory depends on the phase length only.
#[derive(Debug, Clone)]
pub struct RateMeter {
    start: Instant,
    ops: Vec<u32>,
    bytes: Vec<u64>,
    cpu_start: f64,
    cpu_secs: f64,
}

impl RateMeter {
    /// A meter over `[start, start + duration)`, charging the service
    /// threads' CPU time from now until [`Self::finish`].
    pub fn new(start: Instant, duration: Duration) -> Self {
        let buckets = (duration.as_nanos() / BUCKET.as_nanos()).max(1) as usize;
        Self {
            start,
            ops: vec![0; buckets],
            bytes: vec![0; buckets],
            cpu_start: service_cpu_secs(),
            cpu_secs: 0.0,
        }
    }

    /// Counts one completion at `at`; completions outside the phase are
    /// ignored.
    pub fn add(&mut self, at: Instant, bytes: usize) {
        let Some(offset) = at.checked_duration_since(self.start) else {
            return;
        };
        let index = (offset.as_nanos() / BUCKET.as_nanos()) as usize;
        if index < self.ops.len() {
            self.ops[index] += 1;
            self.bytes[index] += bytes as u64;
        }
    }

    /// Stops the CPU clock at the end of the phase (later calls keep
    /// the first reading).
    pub fn finish(&mut self) {
        if self.cpu_secs == 0.0 {
            self.cpu_secs = service_cpu_secs() - self.cpu_start;
        }
    }

    /// Completions counted.
    pub fn count(&self) -> u64 {
        self.ops.iter().map(|&n| u64::from(n)).sum()
    }

    /// Service CPU microseconds per counted completion.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_secs * 1e6 / self.count().max(1) as f64
    }

    /// Median operations per second over the groups.
    pub fn ops_per_s(&self) -> f64 {
        self.median_rate(|i| f64::from(self.ops[i]))
    }

    /// Median MiB per second over the groups.
    pub fn mib_per_s(&self) -> f64 {
        self.median_rate(|i| self.bytes[i] as f64 / (1u64 << 20) as f64)
    }

    /// Splits the completions, in arrival order, into up to
    /// [`RATE_GROUPS`] groups of about equal count; each group's rate is
    /// its weight over the time since the previous group ended. Group
    /// boundaries fall where the completions do, so one stall moves one
    /// group, and a rate is not quantized to a whole count per window.
    fn median_rate(&self, weight: impl Fn(usize) -> f64) -> f64 {
        let total = self.count();
        let groups = (RATE_GROUPS as u64).min(total / 4).max(1);
        let per_group = total.div_ceil(groups).max(1);
        let bucket_secs = BUCKET.as_secs_f64();
        let mut rates = Vec::with_capacity(groups as usize);
        let (mut seen, mut in_group, mut sum, mut previous_end) = (0u64, 0u64, 0.0, 0.0);
        for (i, &n) in self.ops.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += u64::from(n);
            in_group += u64::from(n);
            sum += weight(i);
            if in_group >= per_group || seen == total {
                let end = (i + 1) as f64 * bucket_secs;
                rates.push(sum / (end - previous_end).max(bucket_secs));
                previous_end = end;
                in_group = 0;
                sum = 0.0;
            }
        }
        median(&rates)
    }
}

/// User plus system CPU seconds in a `/proc/.../stat` line.
fn stat_cpu_secs(stat: &str) -> f64 {
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time so far of the service's threads: the scheduler and the
/// engine-pool workers it spawns (`krv-service-*`). The daemon's I/O
/// thread is left out: it spins while frames keep arriving, so its CPU
/// time follows how much CPU the host lends it, not the work done. The
/// benchmark's own client threads are not counted either. 0 where
/// `/proc` is unavailable.
pub fn service_cpu_secs() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with("krv-service"))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("stat")).ok())
        .map(|stat| stat_cpu_secs(&stat))
        .sum()
}

/// What a capacity phase measured.
#[derive(Debug, Clone)]
pub struct Capacity {
    /// Counted completions and the service's CPU time.
    pub meter: RateMeter,
    /// Outcomes of every operation attempted.
    pub tally: Tally,
}

/// Submit-to-arrival time of a reply.
fn arrival(sent: Instant, reply: &Result<Reply, ClientError>) -> Option<Instant> {
    reply.as_ref().ok().map(|reply| sent + reply.elapsed)
}

/// Closed loop: keeps `window` requests in flight, replacing each reply
/// with the next case (cycling through `cases`) until `duration` has
/// passed, then drains. Completions for which `counted` holds feed the
/// meter.
pub fn closed_loop(
    client: &Client,
    cases: &[Case],
    window: usize,
    duration: Duration,
    counted: impl Fn(&Case) -> bool,
    tracer: &mut Tracer,
) -> Capacity {
    let start = Instant::now();
    let end = start + duration;
    let mut meter = RateMeter::new(start, duration);
    let mut tally = Tally::default();
    let mut in_flight: VecDeque<(PendingReply, usize, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    loop {
        if Instant::now() >= end {
            meter.finish();
        }
        while in_flight.len() < window && Instant::now() < end {
            let index = next % cases.len();
            next += 1;
            let sent = Instant::now();
            match cases[index].submit(client, None) {
                Ok(pending) => in_flight.push_back((pending, index, sent)),
                Err(_) => tally.record(Outcome::Transport),
            }
        }
        let Some((pending, index, sent)) = in_flight.pop_front() else {
            break;
        };
        let request = pending.id();
        let reply = pending.wait();
        let case = &cases[index];
        let outcome = case.check(&reply);
        tally.record(outcome);
        if let Some(arrived) = arrival(sent, &reply) {
            tracer.span("client.rtt", 0, request, sent, arrived);
            if outcome == Outcome::Ok && counted(case) {
                meter.add(arrived, case.payload_len());
            }
        }
    }
    meter.finish();
    Capacity { meter, tally }
}

/// One open-loop sample, in schedule order.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The latency class of the request.
    pub class: Class,
    /// Scheduled send to reply arrival, in ms.
    pub latency_ms: f64,
    /// Actual send to reply arrival (the wire round trip), in ms.
    pub rtt_ms: f64,
}

/// What a latency phase measured.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    /// Successful requests, in schedule order.
    pub samples: Vec<Sample>,
    /// How late each send was against its schedule, in ms.
    pub late_ms: Vec<f64>,
    /// Outcomes of every operation attempted.
    pub tally: Tally,
}

impl Latency {
    /// Appends a later phase's samples and outcomes.
    pub fn append(&mut self, later: Latency) {
        self.samples.extend(later.samples);
        self.late_ms.extend(later.late_ms);
        self.tally.merge(&later.tally);
    }

    /// The latencies of one class, in schedule order.
    pub fn latencies(&self, keep: impl Fn(Class) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s.class))
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Mean wire round trip of one class, in ms.
    pub fn mean_rtt_ms(&self, keep: impl Fn(Class) -> bool) -> f64 {
        let rtts: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| keep(s.class))
            .map(|s| s.rtt_ms)
            .collect();
        rtts.iter().sum::<f64>() / rtts.len().max(1) as f64
    }
}

/// What the collector must check a reply against.
enum Check {
    /// A case from the pool.
    Case(usize),
    /// A session `ABSORB` ack.
    Absorb,
}

struct InFlight {
    pending: PendingReply,
    check: Check,
    class: Class,
    due: Instant,
    sent: Instant,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps until `due` (returns at once if it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The collector side of an open loop: waits for each reply in send
/// order and checks it. Runs on its own thread; the generator never
/// blocks on a reply.
fn collect(
    rx: mpsc::Receiver<InFlight>,
    cases: &[Case],
    start: Instant,
    tracer: &mut Tracer,
) -> Latency {
    let mut latency = Latency::default();
    for item in rx {
        let request = item.pending.id();
        let reply = item.pending.wait();
        let outcome = match item.check {
            Check::Case(index) => cases[index].check(&reply),
            Check::Absorb => absorb_outcome(&reply),
        };
        latency.tally.record(outcome);
        latency.late_ms.push(ms(item.sent - item.due));
        let Some(arrived) = arrival(item.sent, &reply) else {
            continue;
        };
        if tracer.enabled() {
            let root = tracer.span("request", 0, request, item.due, arrived);
            tracer.span("gen.late", root, request, item.due, item.sent);
            tracer.span("client.rtt", root, request, item.sent, arrived);
        }
        if outcome == Outcome::Ok && item.due >= start {
            latency.samples.push(Sample {
                class: item.class,
                latency_ms: ms(arrived - item.due),
                rtt_ms: ms(arrived - item.sent),
            });
        }
    }
    latency
}

/// Open loop: sends `cases` in turn at Poisson arrivals of `rate` per
/// second for `duration`, each with the wire `deadline`, whatever the
/// replies are doing. Each request is timed from its scheduled send.
pub fn open_loop(
    client: &Client,
    cases: &[Case],
    rate: f64,
    seed: u64,
    duration: Duration,
    deadline: Duration,
    tracer: &mut Tracer,
) -> Latency {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let collector = scope.spawn(|| collect(rx, cases, start, tracer));
        let mut failed_sends = 0;
        for (i, offset) in PoissonSchedule::new(seed, rate).enumerate() {
            if offset >= duration {
                break;
            }
            let due = start + offset;
            sleep_until(due);
            let index = i % cases.len();
            let sent = Instant::now();
            match cases[index].submit(client, Some(deadline)) {
                Ok(pending) => tx
                    .send(InFlight {
                        pending,
                        check: Check::Case(index),
                        class: cases[index].class,
                        due,
                        sent,
                    })
                    .expect("collector outlives the generator"),
                Err(_) => failed_sends += 1,
            }
        }
        drop(tx);
        let mut latency = collector.join().expect("collector thread panicked");
        for _ in 0..failed_sends {
            latency.tally.record(Outcome::Transport);
        }
        latency
    })
}

/// The outcome of a session `ABSORB` reply.
fn absorb_outcome(reply: &Result<Reply, ClientError>) -> Outcome {
    match reply {
        Ok(Reply {
            response: Response::Absorbed { .. },
            ..
        }) => Outcome::Ok,
        Ok(Reply {
            response: Response::Error { code, .. },
            ..
        }) => error_outcome(*code),
        Ok(_) => Outcome::Mismatch,
        Err(_) => Outcome::Transport,
    }
}

/// The outcome of a blocking session call.
fn call_outcome<T>(result: &Result<T, ClientError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(ClientError::Remote(error)) => error_outcome(error.code),
        Err(ClientError::UnexpectedResponse) => Outcome::Mismatch,
        Err(_) => Outcome::Transport,
    }
}

/// Finalizes, squeezes and closes a session, checking the digest
/// against `expect`. Each of the three frames is one operation.
fn finish_session(
    session: StreamingSession<'_>,
    algorithm: WireAlgorithm,
    expect: &[u8],
    tally: &mut Tally,
) {
    let finalized = session.finalize(finalize_len(algorithm));
    tally.record(call_outcome(&finalized));
    let squeezed = session.squeeze(XOF_LEN);
    tally.record(match &squeezed {
        Ok(digest) if digest.as_slice() == expect => Outcome::Ok,
        Ok(_) => Outcome::Mismatch,
        Err(_) => call_outcome(&squeezed),
    });
    tally.record(call_outcome(&session.close()));
}

/// The seeded messages the session capacity phase streams, with each
/// algorithm's reference digest of each.
#[derive(Debug, Clone)]
pub struct StreamPool {
    /// The messages.
    pub messages: Vec<Vec<u8>>,
    /// `digests[a][m]`: the digest of message `m` under algorithm `a`
    /// of [`crate::cases::STREAM_ALGORITHMS`].
    pub digests: Vec<Vec<Vec<u8>>>,
}

/// One session slot of the capacity phase.
struct Slot<'c> {
    session: StreamingSession<'c>,
    algorithm: usize,
    message: usize,
    offset: usize,
    pending: VecDeque<(PendingReply, Instant, usize)>,
}

/// Session capacity: `parallel` sessions at a time on one connection,
/// each streaming a whole pool message in `chunk`-byte `ABSORB` frames
/// with up to `window` acks outstanding, then finalizing, squeezing
/// and closing; algorithms rotate through `algorithms` (indices into
/// [`crate::cases::STREAM_ALGORITHMS`]). The meter counts acked frames
/// and their bytes.
#[allow(clippy::too_many_arguments)]
pub fn stream_capacity(
    client: &Client,
    pool: &StreamPool,
    algorithms: &[usize],
    parallel: usize,
    chunk: usize,
    window: usize,
    duration: Duration,
    tracer: &mut Tracer,
) -> Capacity {
    let start = Instant::now();
    let end = start + duration;
    let mut meter = RateMeter::new(start, duration);
    let mut tally = Tally::default();
    let mut slots: Vec<Option<Slot<'_>>> = (0..parallel).map(|_| None).collect();
    let mut opened = 0usize;
    while Instant::now() < end {
        for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
            let algorithm = algorithms[opened % algorithms.len()];
            let message = (opened / algorithms.len()) % pool.messages.len();
            opened += 1;
            let wire = crate::cases::STREAM_ALGORITHMS[algorithm];
            let session = client.open_session(wire, session_params(wire));
            tally.record(call_outcome(&session));
            if let Ok(session) = session {
                *slot = Some(Slot {
                    session,
                    algorithm,
                    message,
                    offset: 0,
                    pending: VecDeque::new(),
                });
            }
        }
        for slot in slots.iter_mut().flatten() {
            let message = &pool.messages[slot.message];
            while slot.pending.len() < window && slot.offset < message.len() {
                let take = chunk.min(message.len() - slot.offset);
                let sent = Instant::now();
                match slot
                    .session
                    .submit_absorb(&message[slot.offset..slot.offset + take])
                {
                    Ok(pending) => slot.pending.push_back((pending, sent, take)),
                    Err(_) => tally.record(Outcome::Transport),
                }
                slot.offset += take;
            }
        }
        // Wait for the oldest outstanding ack across the slots.
        let oldest = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((i, slot.as_ref()?.pending.front()?.1)))
            .min_by_key(|&(_, sent)| sent)
            .map(|(i, _)| i);
        if let Some(i) = oldest {
            let slot = slots[i].as_mut().expect("picked a live slot");
            let (pending, sent, bytes) = slot.pending.pop_front().expect("picked a pending ack");
            let request = pending.id();
            let reply = pending.wait();
            let outcome = absorb_outcome(&reply);
            tally.record(outcome);
            if let Some(arrived) = arrival(sent, &reply) {
                tracer.span("client.rtt", 0, request, sent, arrived);
                if outcome == Outcome::Ok {
                    meter.add(arrived, bytes);
                }
            }
        }
        for slot in slots.iter_mut() {
            let done = slot.as_ref().is_some_and(|s| {
                s.pending.is_empty() && s.offset == pool.messages[s.message].len()
            });
            if done {
                let s = slot.take().expect("checked live");
                let wire = crate::cases::STREAM_ALGORITHMS[s.algorithm];
                finish_session(
                    s.session,
                    wire,
                    &pool.digests[s.algorithm][s.message],
                    &mut tally,
                );
            }
        }
    }
    meter.finish();
    // Time is up: drain the acks still outstanding and drop the
    // unfinished sessions.
    for slot in slots.into_iter().flatten() {
        for (pending, _, _) in slot.pending {
            tally.record(absorb_outcome(&pending.wait()));
        }
        tally.record(call_outcome(&slot.session.close()));
    }
    Capacity { meter, tally }
}

/// Session latency: one long-lived session per algorithm in
/// `algorithms`, fed `ABSORB` frames drawn from `chunks` at Poisson
/// arrivals, with every `probe_every`-th arrival a small hash from
/// `probes` instead. At the end each session is finalized and its
/// digest checked against the reference over the chunks it was sent.
#[allow(clippy::too_many_arguments)]
pub fn stream_latency(
    client: &Client,
    algorithms: &[WireAlgorithm],
    chunks: &[Vec<u8>],
    probes: &[Case],
    probe_every: usize,
    rate: f64,
    seed: u64,
    duration: Duration,
    deadline: Duration,
    tracer: &mut Tracer,
) -> Latency {
    let mut sessions = Vec::new();
    let mut tally = Tally::default();
    for &algorithm in algorithms {
        let session = client.open_session(algorithm, session_params(algorithm));
        tally.record(call_outcome(&session));
        sessions.push(session.ok());
    }
    let mut sent_chunks: Vec<Vec<usize>> = vec![Vec::new(); algorithms.len()];
    let mut pick = Rng::new(seed ^ 0xC4_0A4C);
    let start = Instant::now();
    let mut latency = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let collector = scope.spawn(|| collect(rx, probes, start, tracer));
        let mut failed_sends = 0;
        let mut absorbs = 0usize;
        for (i, offset) in PoissonSchedule::new(seed, rate).enumerate() {
            if offset >= duration {
                break;
            }
            let due = start + offset;
            let probe = probe_every > 0 && i % probe_every == probe_every - 1;
            let (submitted, check, class) = if probe {
                let index = (i / probe_every) % probes.len();
                sleep_until(due);
                let sent = Instant::now();
                let submitted = probes[index].submit(client, Some(deadline));
                (
                    submitted.map(|p| (p, sent)),
                    Check::Case(index),
                    Class::Probe,
                )
            } else {
                let target = absorbs % algorithms.len();
                absorbs += 1;
                let Some(session) = &sessions[target] else {
                    continue;
                };
                let chunk = pick.below(chunks.len());
                sent_chunks[target].push(chunk);
                sleep_until(due);
                let sent = Instant::now();
                let submitted = session.submit_absorb(&chunks[chunk]);
                (submitted.map(|p| (p, sent)), Check::Absorb, Class::Main)
            };
            match submitted {
                Ok((pending, sent)) => tx
                    .send(InFlight {
                        pending,
                        check,
                        class,
                        due,
                        sent,
                    })
                    .expect("collector outlives the generator"),
                Err(_) => failed_sends += 1,
            }
        }
        drop(tx);
        let mut latency = collector.join().expect("collector thread panicked");
        for _ in 0..failed_sends {
            latency.tally.record(Outcome::Transport);
        }
        latency
    });
    for ((session, &algorithm), sent) in sessions.into_iter().zip(algorithms).zip(&sent_chunks) {
        let Some(session) = session else { continue };
        let mut reference = Reference::new(algorithm);
        for &chunk in sent {
            reference.update(&chunks[chunk]);
        }
        finish_session(session, algorithm, &reference.finish(), &mut tally);
    }
    latency.tally.merge(&tally);
    latency
}
