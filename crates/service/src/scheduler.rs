//! The shared admission queue and the batching scheduler thread.
//!
//! Lock discipline: the queue mutex and the stats mutex are never held
//! simultaneously except in admission, which acquires queue → stats;
//! nothing acquires them in the other order, and ticket cells are only
//! locked while holding neither.

use crate::metrics::ServiceStats;
use crate::ticket::{
    Completion, KemCompletion, KemRequestError, KemTicket, RequestError, RequestTiming,
    StreamCompletion, StreamOutput, StreamTicket, Ticket, TicketCell,
};
use crate::tier::{TierKind, TierPolicy};
use crate::{HashRequest, KemRequest, ServiceConfig, StreamRequest, SubmitError};
use krv_core::{EnginePool, PoolError};
use krv_keccak::KeccakState;
use krv_kyber::{KemJob, KemResult};
use krv_native::NativeBackend;
use krv_sha3::{drive_stream, PermutationBackend, SpongeParams, SpongeState, StreamItem, StreamOp};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The three kinds of admitted work: a one-shot hash, one streaming
/// session operation, and one ML-KEM operation. All ride the same queue
/// and micro-batches. Hashes and stream operations of a batch dispatch
/// together as one mixed-rate `drive_stream` group (a hash is a stream
/// operation on a fresh state); KEM operations run the staged pipeline,
/// whose rounds dispatch through the same supervised group path. They
/// differ in what their tickets carry back.
#[derive(Debug)]
pub(crate) enum Work {
    Hash {
        request: HashRequest,
        ticket: Arc<TicketCell<Completion>>,
    },
    Stream {
        request: StreamRequest,
        ticket: Arc<TicketCell<StreamCompletion>>,
    },
    Kem {
        request: KemRequest,
        ticket: Arc<TicketCell<KemCompletion>>,
    },
}

/// One admitted request waiting for a batch.
#[derive(Debug)]
pub(crate) struct Pending {
    pub work: Work,
    pub enqueued: Instant,
    /// The client the request was submitted for — the fair-share
    /// accounting key.
    pub client: u64,
    /// Fair-share units this entry holds while queued: 1 for a one-shot
    /// hash, byte-weighted ([`StreamRequest::fair_share_cost`]) for a
    /// stream operation.
    pub cost: usize,
}

/// Everything behind the queue mutex.
#[derive(Debug)]
pub(crate) struct QueueState {
    pub queue: VecDeque<Pending>,
    /// Queue slots currently held per client id; entries are removed
    /// when they reach zero, so the map is bounded by the number of
    /// clients with requests in the queue.
    pub per_client: HashMap<u64, usize>,
    /// `false` once shutdown begins: admission refuses, the scheduler
    /// drains what is queued and then exits.
    pub open: bool,
    /// Failure-injection drills: worker indices the scheduler kills at
    /// the next batch boundary.
    pub kill_requests: Vec<usize>,
}

impl QueueState {
    /// Drains up to `slots` requests off the queue front, releasing
    /// their fair-share holds.
    fn drain_batch(&mut self, slots: usize) -> Vec<Pending> {
        let take = self.queue.len().min(slots);
        let batch: Vec<Pending> = self.queue.drain(..take).collect();
        for pending in &batch {
            if let Some(held) = self.per_client.get_mut(&pending.client) {
                *held = held.saturating_sub(pending.cost);
                if *held == 0 {
                    self.per_client.remove(&pending.client);
                }
            }
        }
        batch
    }
}

/// State shared between the submitting callers and the scheduler thread.
#[derive(Debug)]
pub(crate) struct Shared {
    pub state: Mutex<QueueState>,
    /// Signalled on every admission, close and kill request.
    pub arrivals: Condvar,
    pub stats: Mutex<ServiceStats>,
    pub queue_capacity: usize,
    /// Per-client admission cap (`None` = unlimited): the fair-share
    /// half of the backpressure contract.
    pub fair_share: Option<usize>,
    /// Mirroring drill: once set, every native-tier digest is corrupted
    /// so the differential oracle has something to catch.
    pub native_corruption: AtomicBool,
}

impl Shared {
    pub fn new(config: &ServiceConfig) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                per_client: HashMap::new(),
                open: true,
                kill_requests: Vec::new(),
            }),
            arrivals: Condvar::new(),
            stats: Mutex::new(ServiceStats::new(config)),
            queue_capacity: config.queue_capacity,
            fair_share: config.fair_share,
            native_corruption: AtomicBool::new(false),
        }
    }

    /// Admission of a one-shot hash request (cost: one fair-share unit).
    /// A refusal hands the request back so the caller can retry it later
    /// (a server session table parks refused operations instead of
    /// losing their bytes).
    pub fn submit(
        &self,
        client: u64,
        request: HashRequest,
    ) -> Result<Ticket, (HashRequest, SubmitError)> {
        let cell = Arc::new(TicketCell::default());
        let work = Work::Hash {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, 1) {
            Ok(()) => Ok(Ticket { cell }),
            Err((Work::Hash { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("hash work returns as hash work"),
        }
    }

    /// Admission of one streaming operation (byte-weighted cost, so
    /// fair-share throttling counts session *bytes*, not frames). As for
    /// [`Self::submit`], a refusal hands the request — sponge state and
    /// chunk included — back to the caller.
    pub fn submit_stream(
        &self,
        client: u64,
        request: StreamRequest,
    ) -> Result<StreamTicket, (StreamRequest, SubmitError)> {
        let cost = request.fair_share_cost();
        let cell = Arc::new(TicketCell::default());
        let work = Work::Stream {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, cost) {
            Ok(()) => Ok(StreamTicket { cell }),
            Err((Work::Stream { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("stream work returns as stream work"),
        }
    }

    /// Admission of one KEM operation. Cost scales with the parameter
    /// set's rank `k` ([`KemRequest::fair_share_cost`]): an ML-KEM-1024
    /// keygen holds twice the admission units of an ML-KEM-512 one,
    /// matching its share of matrix-expansion hash work. As for
    /// [`Self::submit`], a refusal hands the request back untouched.
    // The large Err is the contract: a refusal must return the
    // operation by value so no key/ciphertext bytes are lost.
    #[allow(clippy::result_large_err)]
    pub fn submit_kem(
        &self,
        client: u64,
        request: KemRequest,
    ) -> Result<KemTicket, (KemRequest, SubmitError)> {
        let cost = request.fair_share_cost();
        let cell = Arc::new(TicketCell::default());
        let work = Work::Kem {
            request,
            ticket: Arc::clone(&cell),
        };
        match self.admit(client, work, cost) {
            Ok(()) => Ok(KemTicket { cell }),
            Err((Work::Kem { request, .. }, error)) => Err((request, error)),
            Err(_) => unreachable!("kem work returns as kem work"),
        }
    }

    /// Admission: bounded, with explicit rejection — the backpressure
    /// half of the service contract. A client already holding its
    /// fair share of admission units is throttled before global
    /// capacity is even consulted, so one hot client cannot starve the
    /// rest. (The threshold is `held >= share`, so a single operation
    /// costing more than the whole share still admits for an idle
    /// client — its units then throttle everything after it.)
    /// A refusal returns the work untouched alongside the error, so no
    /// request bytes (or stream sponge state) are ever lost to
    /// backpressure.
    #[allow(clippy::result_large_err)] // refusals return the work by value
    fn admit(&self, client: u64, work: Work, cost: usize) -> Result<(), (Work, SubmitError)> {
        let mut state = self.state.lock().expect("queue lock");
        if !state.open {
            return Err((work, SubmitError::ShuttingDown));
        }
        let held = state.per_client.get(&client).copied().unwrap_or(0);
        if let Some(share) = self.fair_share {
            if held >= share {
                self.stats.lock().expect("stats lock").throttled += 1;
                return Err((work, SubmitError::ClientThrottled { client, held }));
            }
        }
        if state.queue.len() >= self.queue_capacity {
            let depth = state.queue.len();
            self.stats.lock().expect("stats lock").rejected += 1;
            return Err((work, SubmitError::QueueFull { depth }));
        }
        state.per_client.insert(client, held + cost);
        state.queue.push_back(Pending {
            work,
            enqueued: Instant::now(),
            client,
            cost,
        });
        self.stats.lock().expect("stats lock").submitted += 1;
        drop(state);
        self.arrivals.notify_all();
        Ok(())
    }

    /// Stops admission; the scheduler drains the queue and exits.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").open = false;
        self.arrivals.notify_all();
    }

    /// Queues a worker kill for the scheduler to apply at the next batch
    /// boundary.
    pub fn request_kill(&self, worker: usize) {
        self.state
            .lock()
            .expect("queue lock")
            .kill_requests
            .push(worker);
        self.arrivals.notify_all();
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("queue lock").queue.len()
    }

    /// Arms the native-corruption drill.
    pub fn corrupt_native(&self) {
        self.native_corruption.store(true, Ordering::Relaxed);
    }
}

/// Where a sponge operation's result goes: a one-shot hash completes
/// with its digest, a stream operation with its advanced state too.
enum SpongeReply {
    Hash(Arc<TicketCell<Completion>>),
    Stream(Arc<TicketCell<StreamCompletion>>),
}

impl SpongeReply {
    fn fail(self, error: RequestError, timing: RequestTiming) {
        match self {
            SpongeReply::Hash(ticket) => ticket.complete(Completion {
                result: Err(error),
                timing,
            }),
            SpongeReply::Stream(ticket) => ticket.complete(StreamCompletion {
                result: Err(error),
                timing,
            }),
        }
    }
}

/// One live sponge operation of a batch. A one-shot hash is a stream
/// operation on a fresh state — absorb the message, finalize, squeeze
/// the digest — so hashes and session operations of every
/// [`SpongeParams`] ride one `drive_stream` group.
struct SpongeLive {
    state: Box<SpongeState>,
    absorb: Vec<u8>,
    finalize: bool,
    output: Vec<u8>,
    reply: SpongeReply,
    enqueued: Instant,
}

/// One live KEM operation riding a batch through the staged pipeline.
struct KemLive {
    /// The staged FIPS 203 state machine driving the operation.
    job: KemJob,
    ticket: Arc<TicketCell<KemCompletion>>,
    enqueued: Instant,
    /// A latched stage-dispatch failure: the job stops advancing and
    /// completes as [`KemRequestError::WorkerFailure`] after the lane
    /// drains.
    failed: Option<PoolError>,
    /// Whether any dispatch group this job rode in was retried.
    retried: bool,
}

/// How one supervised dispatch group went.
struct GroupRun {
    /// `Err` once the retry failed too.
    outcome: Result<(), PoolError>,
    retried: bool,
    /// Primary-tier time, retry included, mirror sample excluded.
    service: Duration,
}

/// What every ticket of one batch shares in its timing.
#[derive(Clone, Copy)]
struct BatchFrame {
    formed: Instant,
    size: usize,
    slots: usize,
    tier: TierKind,
}

impl BatchFrame {
    /// The timing of a request admitted at `enqueued` and completing now.
    fn timing(&self, enqueued: Instant, service: Duration, retried: bool) -> RequestTiming {
        RequestTiming {
            queue: self.formed.duration_since(enqueued),
            service,
            total: enqueued.elapsed(),
            batch_size: self.size,
            batch_slots: self.slots,
            tier: self.tier,
            retried,
        }
    }
}

/// Per-batch counter accumulators, folded into [`ServiceStats`] under
/// one stats-lock acquisition after all lanes dispatch.
#[derive(Default)]
struct BatchTally {
    retries: u64,
    completed: u64,
    failures: u64,
    mirrored: u64,
    mismatches: u64,
    stream_ops: u64,
    stream_absorbed: u64,
    stream_squeezed: u64,
    kem_keygen: u64,
    kem_encaps: u64,
    kem_decaps: u64,
    kem_hash_jobs: u64,
    kem_dispatches: u64,
    kem_invalid: u64,
    /// Timings of the successful requests, for the latency histograms.
    samples: Vec<RequestTiming>,
}

/// Routes `drive_stream`'s permutation calls to the pool, latching the
/// first dispatch error instead of panicking: after an error every
/// further permute is a no-op, the driver terminates normally (its
/// schedule is driven by byte counts, not state contents) and the
/// caller discards the garbage outputs and handles the error.
struct SupervisedBackend<'a> {
    pool: &'a mut EnginePool,
    error: Option<PoolError>,
}

impl PermutationBackend for SupervisedBackend<'_> {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        if self.error.is_none() {
            self.error = self.pool.permute_slice(states).err();
        }
    }
}

/// Pairs each state with its absorb bytes, finalize flag and squeeze
/// buffer as `drive_stream` items.
fn zip_items<'a>(
    states: &'a mut [SpongeState],
    ops: impl IntoIterator<Item = (&'a [u8], bool)>,
    outputs: &'a mut [Vec<u8>],
) -> Vec<StreamItem<'a>> {
    states
        .iter_mut()
        .zip(ops)
        .zip(outputs)
        .map(|((state, (absorb, finalize)), squeeze)| StreamItem {
            state,
            op: StreamOp {
                absorb,
                finalize,
                squeeze,
            },
        })
        .collect()
}

/// Borrows a sponge lane as `drive_stream` items.
fn stream_items(live: &mut [SpongeLive]) -> Vec<StreamItem<'_>> {
    live.iter_mut()
        .map(|op| StreamItem {
            state: &mut op.state,
            op: StreamOp {
                absorb: &op.absorb,
                finalize: op.finalize,
                squeeze: &mut op.output,
            },
        })
        .collect()
}

/// The scheduler thread: owns both execution tiers (the simulator
/// engine pool and the host-native kernel), forms micro-batches from
/// the shared queue, routes each dispatch group by the tier policy and
/// resolves tickets.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    pool: EnginePool,
    native: NativeBackend,
    tier: TierPolicy,
    /// Dispatch groups routed so far; drives the mirror sampler.
    groups_dispatched: u64,
    max_wait: Duration,
}

impl Scheduler {
    pub fn new(shared: Arc<Shared>, config: &ServiceConfig) -> Self {
        Self {
            shared,
            pool: EnginePool::new(config.kernel, config.sn, config.workers),
            native: NativeBackend::new(),
            tier: config.tier,
            groups_dispatched: 0,
            max_wait: config.max_wait,
        }
    }

    /// Serves until the queue is closed and drained.
    pub fn run(mut self) {
        while let Some(batch) = self.next_batch() {
            self.process_batch(batch);
        }
    }

    /// Blocks until a batch closes: every pool slot fillable, the oldest
    /// request aged past `max_wait`, or shutdown draining the remainder.
    /// Returns `None` once the queue is closed and empty.
    fn next_batch(&mut self) -> Option<Vec<Pending>> {
        let mut state = self.shared.state.lock().expect("queue lock");
        loop {
            if !state.kill_requests.is_empty() {
                let kills = std::mem::take(&mut state.kill_requests);
                drop(state);
                for worker in kills {
                    if worker < self.pool.workers() {
                        self.pool.kill_worker(worker);
                    }
                }
                state = self.shared.state.lock().expect("queue lock");
                continue;
            }
            // Slots are re-read every pass: a worker death observed by
            // the previous batch shrinks the close threshold too.
            let slots = self.pool.capacity().max(1);
            let draining = !state.open && !state.queue.is_empty();
            if state.queue.len() >= slots || draining {
                return Some(state.drain_batch(slots));
            }
            if !state.open {
                return None;
            }
            match state.queue.front() {
                Some(oldest) => {
                    let age = oldest.enqueued.elapsed();
                    if age >= self.max_wait {
                        return Some(state.drain_batch(slots));
                    }
                    state = self
                        .shared
                        .arrivals
                        .wait_timeout(state, self.max_wait - age)
                        .expect("queue lock")
                        .0;
                }
                None => {
                    state = self.shared.arrivals.wait(state).expect("queue lock");
                }
            }
        }
    }

    /// Dispatches one closed batch: expires overdue requests, drives
    /// every live hash and stream operation through one mixed-rate
    /// `drive_stream` group, runs the KEM lane and resolves every
    /// ticket.
    fn process_batch(&mut self, batch: Vec<Pending>) {
        let passes_before = self.pool.permutations();
        let frame = BatchFrame {
            formed: Instant::now(),
            size: batch.len(),
            slots: self.pool.capacity().max(1),
            tier: self.tier.primary,
        };

        // Deadline check happens exactly once, at batch formation: an
        // expired request completes as TimedOut without costing a slot.
        let mut timeouts = 0u64;
        let mut tally = BatchTally::default();
        let mut sponge_live: Vec<SpongeLive> = Vec::new();
        let mut kem_live: Vec<KemLive> = Vec::new();
        for pending in batch {
            let enqueued = pending.enqueued;
            let waited = frame.formed.duration_since(enqueued);
            let expired = |deadline: Option<Duration>| deadline.is_some_and(|d| waited >= d);
            let (live, deadline) = match pending.work {
                Work::Hash { request, ticket } => (
                    SpongeLive {
                        state: Box::new(SpongeState::new(request.params)),
                        absorb: request.message,
                        finalize: true,
                        output: vec![0; request.output_len],
                        reply: SpongeReply::Hash(ticket),
                        enqueued,
                    },
                    request.deadline,
                ),
                Work::Stream { request, ticket } => (
                    SpongeLive {
                        state: request.state,
                        absorb: request.absorb,
                        finalize: request.finalize,
                        output: vec![0; request.squeeze_len],
                        reply: SpongeReply::Stream(ticket),
                        enqueued,
                    },
                    request.deadline,
                ),
                Work::Kem { request, ticket } => {
                    let timing = frame.timing(enqueued, Duration::ZERO, false);
                    if expired(request.deadline) {
                        ticket.complete(KemCompletion {
                            result: Err(KemRequestError::TimedOut),
                            timing,
                        });
                        timeouts += 1;
                        continue;
                    }
                    // FIPS 203 input validation runs here, before any
                    // hardware dispatch: a malformed key or ciphertext is
                    // the caller's error and resolves immediately
                    // without riding the pipeline.
                    match KemJob::new(request.params, request.op) {
                        Ok(job) => kem_live.push(KemLive {
                            job,
                            ticket,
                            enqueued,
                            failed: None,
                            retried: false,
                        }),
                        Err(error) => {
                            ticket.complete(KemCompletion {
                                result: Err(KemRequestError::InvalidInput(error)),
                                timing,
                            });
                            tally.kem_invalid += 1;
                        }
                    }
                    continue;
                }
            };
            if expired(deadline) {
                let timing = frame.timing(enqueued, Duration::ZERO, false);
                live.reply.fail(RequestError::TimedOut, timing);
                timeouts += 1;
            } else {
                sponge_live.push(live);
            }
        }

        if !sponge_live.is_empty() {
            self.dispatch_sponges(sponge_live, frame, &mut tally);
        }

        if !kem_live.is_empty() {
            self.dispatch_kems(kem_live, frame, &mut tally);
        }

        let mut stats = self.shared.stats.lock().expect("stats lock");
        stats.batches += 1;
        stats.fill_sum += frame.size as f64 / frame.slots as f64;
        stats.simulator_passes += self.pool.permutations() - passes_before;
        stats.timeouts += timeouts;
        stats.retries += tally.retries;
        stats.completed += tally.completed;
        match self.tier.primary {
            TierKind::Native => stats.native_served += tally.completed,
            TierKind::Simulator => stats.simulator_served += tally.completed,
        }
        stats.mirrored += tally.mirrored;
        stats.mirror_mismatches += tally.mismatches;
        stats.worker_failures += tally.failures;
        stats.stream_ops += tally.stream_ops;
        stats.stream_absorbed += tally.stream_absorbed;
        stats.stream_squeezed += tally.stream_squeezed;
        stats.kem_keygen += tally.kem_keygen;
        stats.kem_encaps += tally.kem_encaps;
        stats.kem_decaps += tally.kem_decaps;
        stats.kem_hash_jobs += tally.kem_hash_jobs;
        stats.kem_dispatches += tally.kem_dispatches;
        stats.kem_invalid += tally.kem_invalid;
        for timing in tally.samples {
            stats.queue_wait.record_duration(timing.queue);
            stats.service_time.record_duration(timing.service);
            stats.e2e.record_duration(timing.total);
        }
        stats.alive_workers = self.pool.alive_workers();
        stats.batch_slots = self.pool.capacity().max(1);
    }

    /// The sponge lane of one batch: every live one-shot hash and stream
    /// operation advances through a single shared [`drive_stream`] group
    /// on the primary tier. The permutation does not care which rate
    /// each state uses, so the group mixes every `SpongeParams` of the
    /// batch and packs up to SN states into each pass. A one-shot hash's
    /// snapshot in [`Self::dispatch_group`] is its fresh state.
    fn dispatch_sponges(
        &mut self,
        mut live: Vec<SpongeLive>,
        frame: BatchFrame,
        tally: &mut BatchTally,
    ) {
        let GroupRun {
            outcome,
            retried,
            service,
        } = self.dispatch_group(&mut stream_items(&mut live), tally);
        for op in live {
            let timing = frame.timing(op.enqueued, service, retried);
            if let Err(error) = &outcome {
                tally.failures += 1;
                let error = RequestError::WorkerFailure {
                    error: error.clone(),
                };
                op.reply.fail(error, timing);
                continue;
            }
            tally.samples.push(timing);
            tally.completed += 1;
            match op.reply {
                SpongeReply::Hash(ticket) => ticket.complete(Completion {
                    result: Ok(op.output),
                    timing,
                }),
                SpongeReply::Stream(ticket) => {
                    tally.stream_ops += 1;
                    tally.stream_absorbed += op.absorb.len() as u64;
                    tally.stream_squeezed += op.output.len() as u64;
                    ticket.complete(StreamCompletion {
                        result: Ok(StreamOutput {
                            state: op.state,
                            output: op.output,
                        }),
                        timing,
                    });
                }
            }
        }
    }

    /// The KEM lane of one batch: every live operation's staged FIPS 203
    /// state machine advances in lockstep, and at each round the pending
    /// Keccak jobs of *all* operations are packed — across requests —
    /// into shared per-parameter-set dispatch groups. This is where the
    /// cross-request batching pays off: one client's matrix-expansion
    /// SHAKE128 squeezes ride the same SN-wide pass as another client's,
    /// filling engine slots a single operation could not.
    ///
    /// Each group is a [`Self::dispatch_group`] of fresh one-shot states,
    /// so it gets the sponge lane's supervision: one retry on a lost
    /// worker and the sampled mirror oracle. A group that fails twice
    /// latches failure onto exactly the operations with a job in it;
    /// unrelated operations keep advancing.
    fn dispatch_kems(
        &mut self,
        mut kem_live: Vec<KemLive>,
        frame: BatchFrame,
        tally: &mut BatchTally,
    ) {
        let started = Instant::now();
        loop {
            // Round formation: every live job's pending hashes, grouped
            // across jobs by sponge parameters in first-seen order. The
            // (job, local) indices remember where each output goes.
            let mut groups: Vec<(SpongeParams, Vec<(usize, usize)>)> = Vec::new();
            for (j, live) in kem_live.iter().enumerate() {
                if live.failed.is_some() || live.job.is_done() {
                    continue;
                }
                for (l, hash_job) in live.job.pending().iter().enumerate() {
                    match groups
                        .iter_mut()
                        .find(|(params, _)| *params == hash_job.params)
                    {
                        Some((_, members)) => members.push((j, l)),
                        None => groups.push((hash_job.params, vec![(j, l)])),
                    }
                }
            }
            if groups.is_empty() {
                break;
            }

            let mut round_outputs: Vec<Vec<Option<Vec<u8>>>> = kem_live
                .iter()
                .map(|live| vec![None; live.job.pending().len()])
                .collect();
            for (params, members) in &groups {
                // Every KEM hash is a one-shot: a fresh state absorbing
                // its input, finalized, squeezing its output.
                let mut states = vec![SpongeState::new(*params); members.len()];
                let mut outputs: Vec<Vec<u8>> = members
                    .iter()
                    .map(|&(j, l)| vec![0; kem_live[j].job.pending()[l].output_len])
                    .collect();
                let inputs = members
                    .iter()
                    .map(|&(j, l)| (kem_live[j].job.pending()[l].input.as_slice(), true));
                let mut items = zip_items(&mut states, inputs, &mut outputs);
                tally.kem_dispatches += 1;
                tally.kem_hash_jobs += members.len() as u64;
                let run = self.dispatch_group(&mut items, tally);
                // A group that failed twice latches onto its members.
                for (&(j, l), output) in members.iter().zip(outputs) {
                    kem_live[j].retried |= run.retried;
                    match &run.outcome {
                        Ok(()) => round_outputs[j][l] = Some(output),
                        Err(error) => kem_live[j].failed = Some(error.clone()),
                    }
                }
            }

            // Advance every job whose round came back whole.
            for (live, outputs) in kem_live.iter_mut().zip(round_outputs) {
                if live.failed.is_none() && !live.job.is_done() {
                    let outputs: Option<Vec<Vec<u8>>> = outputs.into_iter().collect();
                    live.job
                        .advance(outputs.expect("every pending hash job was dispatched"));
                }
            }
        }

        let service = started.elapsed();
        for live in kem_live {
            let timing = frame.timing(live.enqueued, service, live.retried);
            let result = match live.failed {
                None => {
                    tally.samples.push(timing);
                    tally.completed += 1;
                    let result = live.job.into_result();
                    match result {
                        KemResult::Keygen { .. } => tally.kem_keygen += 1,
                        KemResult::Encaps { .. } => tally.kem_encaps += 1,
                        KemResult::Decaps { .. } => tally.kem_decaps += 1,
                    }
                    Ok(result)
                }
                Some(error) => {
                    tally.failures += 1;
                    Err(KemRequestError::WorkerFailure { error })
                }
            };
            live.ticket.complete(KemCompletion { result, timing });
        }
    }

    /// One supervised dispatch group, shared by the sponge lane and every
    /// KEM round. The states are snapshotted, then driven on the primary
    /// tier. A failed attempt leaves garbage mid-stream, so the single
    /// retry restores every snapshot first; its squeeze rewrites every
    /// output byte. On a sampled group the mirror oracle replays the
    /// snapshots through the other tier and diffs both the squeezed
    /// bytes and the advanced states.
    fn dispatch_group(&mut self, items: &mut [StreamItem<'_>], tally: &mut BatchTally) -> GroupRun {
        let snapshots: Vec<SpongeState> = items.iter().map(|item| item.state.clone()).collect();
        let group_index = self.groups_dispatched;
        self.groups_dispatched += 1;
        let started = Instant::now();
        let mut retried = false;
        let mut outcome = self.drive_tier(self.tier.primary, items);
        if outcome.is_err() {
            retried = true;
            tally.retries += 1;
            for (item, snapshot) in items.iter_mut().zip(&snapshots) {
                *item.state = snapshot.clone();
            }
            outcome = self.drive_tier(self.tier.primary, items);
        }
        let service = started.elapsed();
        if outcome.is_ok() && self.tier.mirrors(group_index) {
            let mut states = snapshots;
            let mut outputs: Vec<Vec<u8>> = items
                .iter()
                .map(|item| vec![0; item.op.squeeze.len()])
                .collect();
            let ops = items.iter().map(|item| (item.op.absorb, item.op.finalize));
            let mut mirror = zip_items(&mut states, ops, &mut outputs);
            // Mirroring is best-effort: a mirror-side pool failure skips
            // the sample rather than failing served requests.
            let mirror_tier = self.tier.primary.other();
            if self.drive_tier(mirror_tier, &mut mirror).is_ok() {
                tally.mirrored += items.len() as u64;
                for ((item, state), output) in items.iter().zip(&states).zip(&outputs) {
                    tally.mismatches +=
                        u64::from(*item.state != *state || *item.op.squeeze != **output);
                }
            }
        }
        GroupRun {
            outcome,
            retried,
            service,
        }
    }

    /// One `drive_stream` attempt on the chosen tier: supervised on the
    /// simulator pool (errors surface for the retry path), infallible on
    /// the native kernel — where the corruption drill flips the first
    /// squeezed byte of every operation, so the mirror oracle has
    /// something to catch.
    fn drive_tier(
        &mut self,
        tier: TierKind,
        items: &mut [StreamItem<'_>],
    ) -> Result<(), PoolError> {
        match tier {
            TierKind::Simulator => {
                let mut backend = SupervisedBackend {
                    pool: &mut self.pool,
                    error: None,
                };
                drive_stream(&mut backend, items);
                backend.error.map_or(Ok(()), Err)
            }
            TierKind::Native => {
                drive_stream(&mut self.native, items);
                if self.shared.native_corruption.load(Ordering::Relaxed) {
                    for item in items.iter_mut() {
                        if let Some(byte) = item.op.squeeze.first_mut() {
                            *byte ^= 0x80;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}
