//! A pool of vector engines sharded across worker threads.
//!
//! One [`VectorKeccakEngine`] models one
//! vector processor: it permutes at most `SN` states per hardware pass,
//! and a larger slice is serialized into `⌈n / SN⌉` passes on that
//! single simulated device. [`EnginePool`] instead models a farm of `W`
//! identical accelerators fed from one queue: every engine shares one
//! cached, pre-decoded kernel image per width, and the passes are dealt
//! across the `W` worker slots.
//!
//! # The caller runs bucket 0
//!
//! A dispatch deals its passes into one bucket per alive worker (see
//! *Determinism*). The calling thread permutes bucket 0 in place on its
//! own engines while persistent helper threads run buckets `1..A`, each
//! reusing one state buffer across dispatches. The first dispatch that
//! deals a helper a bucket spawns it, and it then lives until the pool
//! is dropped, so a dispatch of `p` passes runs at most `min(A, p) − 1`
//! helpers. A one-worker pool or a one-pass dispatch runs none and never
//! leaves the calling thread.
//!
//! # Fill-adaptive width
//!
//! The simulated cost of a pass does not depend on `SN` (paper §4.2: the
//! latency is the same however many states the unit holds), but the
//! host's cost of simulating it does. A pass with `k` live states
//! therefore runs on the narrowest engine of width
//! `k.next_power_of_two().min(SN)`. Each thread builds these engines
//! lazily and caches them, at most `⌈log₂ SN⌉ + 1` of them. Outputs and
//! the cycle ledger are those of an `SN`-wide engine with idle lanes;
//! the conformance suite's width row pins that for every kernel.
//!
//! # Determinism
//!
//! Scheduling is static, not work-stealing: pass `i` (the `i`-th
//! `SN`-wide chunk of the input slice) always runs on engine `i mod W`.
//! Because each chunk is an independent Keccak state set and each engine
//! writes only its own chunks, the output is bit-identical to the
//! reference permutation — and to itself — for every worker count.
//! Replies are collected in worker order, so the first trap reported is
//! the lowest-numbered worker's regardless of thread timing.
//!
//! Cycle accounting is deterministic too. The simulated cycle cost of a
//! pass is data-independent, so [`PoolMetrics::total_cycles`] (the sum
//! over all passes — total simulated work) is invariant under the
//! worker count, while [`PoolMetrics::max_cycles`] (the busiest
//! engine — the critical path, i.e. what a wall clock would see on real
//! parallel hardware) shrinks as workers are added. There is a property
//! test pinning both.
//!
//! # Graceful degradation
//!
//! A worker that dies — a panic in its helper thread, or an injected
//! [`EnginePool::kill_worker`] modelling a failed accelerator — is
//! discovered by the next dispatch that deals it a bucket, whichever
//! thread would have run that bucket. That dispatch fails with
//! [`PoolError::WorkerLost`] (its states are left in an unspecified
//! partially-permuted condition, so callers must retry from their own
//! inputs), the worker is marked dead, and every subsequent dispatch
//! reschedules round-robin across the survivors:
//! [`EnginePool::alive_workers`] and [`EnginePool::capacity`] shrink,
//! outputs stay bit-identical to the reference, and a pool whose last
//! worker dies reports [`PoolError::AllWorkersLost`] instead of hanging.

use crate::engine::{KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;
use krv_vproc::Trap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Why a pool dispatch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A kernel faulted (first trap in worker order) — an engine bug,
    /// as the generated kernels are validated against the reference.
    Trap(Trap),
    /// The worker with this index died mid-dispatch (thread panic or
    /// [`EnginePool::kill_worker`]); its share of the dispatch was not
    /// permuted. The pool has marked it dead — a retry runs on the
    /// surviving workers.
    WorkerLost {
        /// Index of the lost worker.
        worker: usize,
    },
    /// Every worker has died; the pool cannot dispatch at all.
    AllWorkersLost,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Trap(trap) => write!(f, "kernel trapped: {trap:?}"),
            PoolError::WorkerLost { worker } => {
                write!(f, "pool worker {worker} died mid-dispatch")
            }
            PoolError::AllWorkersLost => write!(f, "every pool worker has died"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<Trap> for PoolError {
    fn from(trap: Trap) -> Self {
        PoolError::Trap(trap)
    }
}

/// Work done by one engine during a single [`EnginePool::permute_slice`]
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineLoad {
    /// Hardware passes the engine executed.
    pub passes: u64,
    /// Simulated cycles the engine spent across those passes.
    pub cycles: u64,
}

/// Deterministic cycle accounting of one pool dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Per-engine work, indexed by worker; chunk `i` ran on worker
    /// `i mod W`. Always `W` entries — workers the dispatch never
    /// touched report a zero load.
    pub per_engine: Vec<EngineLoad>,
    /// Hardware passes across all engines (`⌈n / SN⌉`).
    pub passes: u64,
    /// Workers that actually received passes: `min(W, passes)`. A
    /// dispatch smaller than the pool leaves the idle tail unspawned.
    pub effective_workers: usize,
    /// Total simulated cycles across all engines — invariant under the
    /// worker count (the amount of work does not change, only where it
    /// runs).
    pub total_cycles: u64,
    /// Cycles of the busiest engine: the critical path, i.e. the
    /// latency of the dispatch on truly parallel hardware.
    pub max_cycles: u64,
}

impl PoolMetrics {
    /// Parallel speedup of this dispatch: total work over critical path
    /// (`1.0` for a single worker or a single pass).
    pub fn speedup(&self) -> f64 {
        if self.max_cycles == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.max_cycles as f64
        }
    }
}

/// One thread's engines, one per pass width it has needed so far: slot
/// `j` holds width `2^j` below `SN`, and the last slot holds `SN`.
#[derive(Debug)]
struct Engines {
    kind: KernelKind,
    sn: usize,
    compiled: bool,
    by_width: Vec<Option<VectorKeccakEngine>>,
}

impl Engines {
    fn new(kind: KernelKind, sn: usize, compiled: bool) -> Self {
        let slots = sn.next_power_of_two().trailing_zeros() as usize + 1;
        Self {
            kind,
            sn,
            compiled,
            by_width: (0..slots).map(|_| None).collect(),
        }
    }

    /// Runs one bucket's passes in order, each on the narrowest engine
    /// that holds its states. A trap stops the bucket, leaving its
    /// remaining passes untouched.
    fn run_bucket<'s>(
        &mut self,
        passes: impl Iterator<Item = &'s mut [KeccakState]>,
    ) -> (EngineLoad, Option<Trap>) {
        let mut load = EngineLoad::default();
        for pass in passes {
            let width = pass.len().next_power_of_two().min(self.sn);
            let slot = if width == self.sn {
                self.by_width.len() - 1
            } else {
                width.trailing_zeros() as usize
            };
            let (kind, compiled) = (self.kind, self.compiled);
            let engine = self.by_width[slot]
                .get_or_insert_with(|| VectorKeccakEngine::with_compiled(kind, width, compiled));
            if let Err(trap) = engine.permute_slice(pass) {
                return (load, Some(trap));
            }
            load.passes += 1;
            load.cycles += engine
                .last_metrics()
                .expect("a pass records metrics")
                .total_cycles;
        }
        (load, None)
    }
}

/// A helper's answer: the bucket's buffer, permuted, the load it
/// performed and the first trap it hit, if any.
type Reply = (Vec<KeccakState>, EngineLoad, Option<Trap>);

/// A persistent helper thread with its own [`Engines`], fed one bucket
/// at a time as a state buffer that travels back with the reply.
#[derive(Debug)]
struct Helper {
    tx: Sender<Vec<KeccakState>>,
    rx: Receiver<Reply>,
    /// The bucket buffer, kept here between dispatches so its allocation
    /// is reused.
    buffer: Vec<KeccakState>,
    thread: JoinHandle<()>,
}

impl Helper {
    fn spawn(kind: KernelKind, sn: usize, compiled: bool) -> Self {
        let (job_tx, job_rx) = channel::<Vec<KeccakState>>();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let thread = std::thread::spawn(move || {
            // Engines are built on first use per width; their kernel
            // images come pre-decoded from the process-wide cache.
            let mut engines = Engines::new(kind, sn, compiled);
            while let Ok(mut bucket) = job_rx.recv() {
                let (load, trap) = engines.run_bucket(bucket.chunks_mut(sn));
                if reply_tx.send((bucket, load, trap)).is_err() {
                    break;
                }
            }
        });
        Self {
            tx: job_tx,
            rx: reply_rx,
            buffer: Vec::new(),
            thread,
        }
    }

    /// Closes the job channel and joins the thread: a clean exit once
    /// the sender is gone, or the end of a thread that already died. A
    /// panic was reported as [`PoolError::WorkerLost`] when observed, so
    /// the join result is not needed here.
    fn join(self) {
        drop(self.tx);
        let _ = self.thread.join();
    }
}

/// A pool of `W` identical vector Keccak engines, each `SN` states wide:
/// the calling thread runs one worker's share of every dispatch and
/// persistent helper threads run the rest.
///
/// The pool implements [`PermutationBackend`] with
/// `parallel_states = W × SN`. A [`drive_stream`](krv_sha3::drive_stream)
/// round — and so every [`hash_batch`](krv_sha3::hash_batch) — hands it
/// all stalled states in one call, which it splits into `SN`-wide passes
/// across its engines.
///
/// # Example
///
/// ```
/// use krv_core::{EnginePool, KernelKind};
/// use krv_keccak::{keccak_f1600, KeccakState};
///
/// let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
/// assert_eq!(pool.capacity(), 6);
/// let mut states = vec![KeccakState::new(); 5];
/// let mut expected = states.clone();
/// pool.permute_slice(&mut states).unwrap();
/// for state in &mut expected {
///     keccak_f1600(state);
/// }
/// assert_eq!(states, expected);
/// ```
#[derive(Debug)]
pub struct EnginePool {
    kind: KernelKind,
    sn: usize,
    /// Whether the engines dispatch through the compiled tier.
    compiled: bool,
    /// Which worker slots still have live "hardware": a slot goes (and
    /// stays) `false` once a dispatch observes its death.
    alive: Vec<bool>,
    /// Failure injection: slots killed via [`Self::kill_worker`] whose
    /// death the next dispatch touching them will observe.
    killed: Vec<bool>,
    /// The calling thread's engines, which run bucket 0.
    engines: Engines,
    /// Helper `h` runs bucket `h + 1`; spawned on first use.
    helpers: Vec<Option<Helper>>,
    last_metrics: Option<PoolMetrics>,
    permutations: u64,
}

impl EnginePool {
    /// Creates a pool of `workers` engines, each holding `sn` states.
    ///
    /// The kernel is generated, assembled and pre-decoded once per width
    /// (via the process-wide [`crate::cache`]); every engine of that
    /// width shares the same immutable program image. Engines and helper
    /// threads are built lazily, on the first dispatch that needs them.
    ///
    /// # Panics
    ///
    /// Panics if `sn` or `workers` is zero.
    pub fn new(kind: KernelKind, sn: usize, workers: usize) -> Self {
        Self::with_compiled(kind, sn, workers, crate::engine::compiled_default())
    }

    /// Creates a pool with every engine's execution tier pinned
    /// explicitly (see [`VectorKeccakEngine::with_compiled`]);
    /// [`EnginePool::new`] picks the process default.
    ///
    /// # Panics
    ///
    /// Panics if `sn` or `workers` is zero.
    pub fn with_compiled(kind: KernelKind, sn: usize, workers: usize, compiled: bool) -> Self {
        assert!(workers > 0, "the pool needs at least one worker");
        assert!(sn > 0, "each engine needs at least one state slot");
        Self {
            kind,
            sn,
            compiled,
            alive: vec![true; workers],
            killed: vec![false; workers],
            engines: Engines::new(kind, sn, compiled),
            helpers: Vec::new(),
            last_metrics: None,
            permutations: 0,
        }
    }

    /// The kernel kind every engine runs.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Number of worker engines the pool was configured with (`W`),
    /// including any that have since died.
    pub fn workers(&self) -> usize {
        self.alive.len()
    }

    /// Workers still alive — `W` until a dispatch observes a death.
    pub fn alive_workers(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Helper threads running now — at most the high-water mark of
    /// `min(A, passes) − 1` over all dispatches, as the calling thread
    /// runs one bucket itself.
    pub fn spawned_workers(&self) -> usize {
        self.helpers.iter().flatten().count()
    }

    /// States per engine pass (`SN`).
    pub fn states_per_engine(&self) -> usize {
        self.sn
    }

    /// States the whole pool permutes in one parallel step:
    /// `alive workers × SN` (shrinks as workers die).
    pub fn capacity(&self) -> usize {
        self.alive_workers() * self.sn
    }

    /// Kills a worker's simulated hardware: the next dispatch that deals
    /// the slot a bucket observes the death and fails with
    /// [`PoolError::WorkerLost`], whether the calling thread or a helper
    /// would have run that bucket. Failure injection for supervision
    /// drills; killing an already-dead worker is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_worker(&mut self, index: usize) {
        assert!(index < self.alive.len(), "no worker {index}");
        if self.alive[index] {
            self.killed[index] = true;
        }
    }

    /// Marks a worker slot dead after its failure was observed.
    fn bury_worker(&mut self, index: usize) {
        self.alive[index] = false;
        self.killed[index] = false;
    }

    /// Metrics of the most recent dispatch.
    pub fn last_metrics(&self) -> Option<&PoolMetrics> {
        self.last_metrics.as_ref()
    }

    /// Total hardware passes executed by all engines over the pool's
    /// lifetime.
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    /// Permutes every state in `states`, dealing `SN`-wide passes
    /// round-robin across the alive workers: the calling thread runs the
    /// first worker's bucket, helper threads the others.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::Trap`] on the first kernel fault (in worker
    /// order) — which indicates an engine bug, as the kernels are
    /// validated against the reference permutation — or
    /// [`PoolError::WorkerLost`] / [`PoolError::AllWorkersLost`] when a
    /// worker's death is observed. After a failed dispatch the slice is
    /// in an unspecified partially-permuted condition; retry from the
    /// original inputs.
    pub fn permute_slice(&mut self, states: &mut [KeccakState]) -> Result<(), PoolError> {
        let workers = self.alive.len();
        if states.is_empty() {
            self.last_metrics = Some(PoolMetrics {
                per_engine: vec![EngineLoad::default(); workers],
                passes: 0,
                effective_workers: 0,
                total_cycles: 0,
                max_cycles: 0,
            });
            return Ok(());
        }
        // Static round-robin over the alive workers: chunk `i` (the
        // i-th SN-wide slice) runs on the i-mod-A-th survivor, which is
        // worker `i mod W` while all W are alive. This keeps outputs
        // and the per-engine cycle ledger independent of thread timing.
        let alive: Vec<usize> = (0..workers).filter(|&w| self.alive[w]).collect();
        if alive.is_empty() {
            return Err(PoolError::AllWorkersLost);
        }
        let sn = self.sn;
        // A dispatch with fewer passes than workers only deals buckets
        // to the leading `passes` workers; the tail stays idle.
        let active = alive.len().min(states.len().div_ceil(sn));
        // Deal phase, in worker order: a killed slot's death is observed
        // here whoever would run its bucket, and buckets 1.. go out to
        // the helpers (a helper whose thread died is discovered on send).
        let mut lost: Option<usize> = None;
        let mut dealt: Vec<usize> = Vec::with_capacity(active);
        for (bucket, &index) in alive.iter().enumerate().take(active) {
            if self.killed[index] {
                self.bury_worker(index);
                lost.get_or_insert(index);
                continue;
            }
            if bucket == 0 {
                continue;
            }
            if self.helpers.len() < bucket {
                self.helpers.resize_with(bucket, || None);
            }
            let helper = self.helpers[bucket - 1]
                .get_or_insert_with(|| Helper::spawn(self.kind, sn, self.compiled));
            let mut buffer = std::mem::take(&mut helper.buffer);
            buffer.clear();
            for pass in states.chunks(sn).skip(bucket).step_by(active) {
                buffer.extend_from_slice(pass);
            }
            if helper.tx.send(buffer).is_ok() {
                dealt.push(bucket);
            } else {
                if let Some(dead) = self.helpers[bucket - 1].take() {
                    dead.join();
                }
                self.bury_worker(index);
                lost.get_or_insert(index);
            }
        }
        // Bucket 0 runs in place on the calling thread while the helpers
        // work on theirs.
        let mut per_engine = vec![EngineLoad::default(); workers];
        let mut first_trap = None;
        if self.alive[alive[0]] {
            let (load, trap) = self
                .engines
                .run_bucket(states.chunks_mut(sn).step_by(active));
            per_engine[alive[0]] = load;
            first_trap = trap;
        }
        // Collect phase, in worker order regardless of thread timing.
        for bucket in dealt {
            let index = alive[bucket];
            let helper = self.helpers[bucket - 1].as_mut().expect("dealt helper");
            match helper.rx.recv() {
                Ok((buffer, load, trap)) => {
                    let passes = states.chunks_mut(sn).skip(bucket).step_by(active);
                    for (pass, done) in passes.zip(buffer.chunks(sn)) {
                        pass.copy_from_slice(done);
                    }
                    helper.buffer = buffer;
                    per_engine[index] = load;
                    first_trap = first_trap.or(trap);
                }
                Err(_) => {
                    if let Some(dead) = self.helpers[bucket - 1].take() {
                        dead.join();
                    }
                    self.bury_worker(index);
                    lost.get_or_insert(index);
                }
            }
        }
        self.permutations += per_engine.iter().map(|load| load.passes).sum::<u64>();
        if let Some(worker) = lost {
            self.last_metrics = None;
            return Err(PoolError::WorkerLost { worker });
        }
        if let Some(trap) = first_trap {
            return Err(PoolError::Trap(trap));
        }
        self.last_metrics = Some(PoolMetrics {
            passes: per_engine.iter().map(|load| load.passes).sum(),
            effective_workers: active,
            total_cycles: per_engine.iter().map(|load| load.cycles).sum(),
            max_cycles: per_engine.iter().map(|load| load.cycles).max().unwrap_or(0),
            per_engine,
        });
        Ok(())
    }
}

impl Drop for EnginePool {
    /// Closes every helper's job channel and joins the threads.
    fn drop(&mut self) {
        self.helpers.drain(..).flatten().for_each(Helper::join);
    }
}

impl PermutationBackend for EnginePool {
    /// Permutes all states across the worker engines.
    ///
    /// # Panics
    ///
    /// Panics if a kernel traps — the generated kernels are validated,
    /// so a trap indicates an internal bug, not a caller error.
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        self.permute_slice(states)
            .expect("validated kernel must not trap");
    }

    fn parallel_states(&self) -> usize {
        self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;

    fn distinct_states(n: usize) -> Vec<KeccakState> {
        (0..n)
            .map(|s| {
                let mut lanes = [0u64; 25];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = (s as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ (i as u64) << 13;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect()
    }

    fn permuted(states: &[KeccakState]) -> Vec<KeccakState> {
        let mut expected = states.to_vec();
        for state in &mut expected {
            keccak_f1600(state);
        }
        expected
    }

    fn check_pool(kind: KernelKind, sn: usize, workers: usize, n: usize) {
        let mut pool = EnginePool::new(kind, sn, workers);
        let mut states = distinct_states(n);
        let expected = permuted(&states);
        pool.permute_slice(&mut states).expect("pool runs");
        assert_eq!(
            states, expected,
            "{kind}, sn={sn}, workers={workers}, n={n}"
        );
    }

    #[test]
    fn pool_matches_reference_across_shapes() {
        // n < SN, n == capacity, n not divisible by SN, n > capacity.
        check_pool(KernelKind::E64Lmul8, 3, 4, 2);
        check_pool(KernelKind::E64Lmul8, 3, 4, 12);
        check_pool(KernelKind::E64Lmul8, 3, 4, 13);
        check_pool(KernelKind::E64Lmul1, 2, 3, 17);
        check_pool(KernelKind::E32Lmul8, 2, 2, 7);
    }

    /// Every shape of the single dispatch path: outputs equal the
    /// reference permutation, the ledger is exactly the one the static
    /// `i mod W` schedule implies (every pass, however narrow the engine
    /// that ran it, costs an `SN`-wide pass's cycles), and the caller's
    /// bucket never needs a helper thread.
    #[test]
    fn dispatch_matches_reference_and_the_static_schedule_ledger() {
        let kind = KernelKind::E64Lmul8;
        for sn in 1..=4 {
            let cycles_per_pass = VectorKeccakEngine::new(kind, sn)
                .measure()
                .expect("a pass runs")
                .total_cycles;
            for workers in 1..=3 {
                for n in 0..=2 * workers * sn + 1 {
                    let shape = format!("sn={sn}, workers={workers}, n={n}");
                    let mut pool = EnginePool::new(kind, sn, workers);
                    let mut states = distinct_states(n);
                    let expected = permuted(&states);
                    pool.permute_slice(&mut states).expect("pool runs");
                    assert_eq!(states, expected, "{shape}");

                    let passes = n.div_ceil(sn);
                    let per_engine: Vec<EngineLoad> = (0..workers)
                        .map(|w| {
                            let mine = (0..passes).filter(|i| i % workers == w).count() as u64;
                            EngineLoad {
                                passes: mine,
                                cycles: mine * cycles_per_pass,
                            }
                        })
                        .collect();
                    let ledger = PoolMetrics {
                        passes: passes as u64,
                        effective_workers: workers.min(passes),
                        total_cycles: passes as u64 * cycles_per_pass,
                        max_cycles: per_engine[0].cycles,
                        per_engine,
                    };
                    assert_eq!(pool.last_metrics(), Some(&ledger), "{shape}");
                    assert_eq!(pool.permutations(), passes as u64, "{shape}");
                    assert!(
                        pool.spawned_workers() <= workers.min(passes).saturating_sub(1),
                        "{shape}: {} helpers",
                        pool.spawned_workers()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_slice_is_a_no_op() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 4);
        pool.permute_slice(&mut []).unwrap();
        let metrics = pool.last_metrics().unwrap();
        assert_eq!(metrics.passes, 0);
        assert_eq!(metrics.total_cycles, 0);
        assert_eq!(metrics.max_cycles, 0);
        assert_eq!(metrics.effective_workers, 0);
        assert_eq!(pool.permutations(), 0);
        assert_eq!(pool.spawned_workers(), 0, "no pass, no thread");
    }

    #[test]
    fn passes_are_assigned_round_robin() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        // 7 states → 4 passes over 3 workers → loads of 2, 1, 1 passes.
        let mut states = distinct_states(7);
        pool.permute_slice(&mut states).unwrap();
        let metrics = pool.last_metrics().unwrap();
        let passes: Vec<u64> = metrics.per_engine.iter().map(|l| l.passes).collect();
        assert_eq!(passes, vec![2, 1, 1]);
        assert_eq!(metrics.passes, 4);
        assert_eq!(metrics.effective_workers, 3);
        assert_eq!(metrics.max_cycles, metrics.per_engine[0].cycles);
    }

    #[test]
    fn small_dispatch_leaves_the_worker_tail_unspawned() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 6);
        // 3 states → 2 passes → the caller runs worker 0's bucket and one
        // helper runs worker 1's.
        let mut states = distinct_states(3);
        let expected = permuted(&states);
        pool.permute_slice(&mut states).unwrap();
        assert_eq!(states, expected);
        let metrics = pool.last_metrics().unwrap();
        assert_eq!(metrics.effective_workers, 2);
        assert_eq!(metrics.per_engine.len(), 6, "ledger keeps W entries");
        assert!(metrics.per_engine[2..].iter().all(|l| l.passes == 0));
        assert_eq!(pool.spawned_workers(), 1);
        // A larger follow-up dispatch grows the helper set on demand.
        let mut more = distinct_states(12);
        pool.permute_slice(&mut more).unwrap();
        assert_eq!(pool.last_metrics().unwrap().effective_workers, 6);
        assert_eq!(pool.spawned_workers(), 5);
    }

    #[test]
    fn workers_persist_across_dispatches() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        let mut states = distinct_states(9);
        let mut expected = states.clone();
        pool.permute_slice(&mut states).unwrap();
        pool.permute_slice(&mut states).unwrap();
        for state in &mut expected {
            keccak_f1600(state);
            keccak_f1600(state);
        }
        assert_eq!(states, expected, "two dispatches compose");
        assert_eq!(
            pool.spawned_workers(),
            2,
            "helpers are reused, not respawned"
        );
        assert_eq!(pool.permutations(), 10, "2 × ⌈9/2⌉ passes accumulated");
    }

    #[test]
    fn narrow_engines_are_built_per_width_on_demand() {
        // SN = 4: widths 1, 2 and 4, one engine each, built by the first
        // pass that needs them.
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 4, 1);
        let built = |pool: &EnginePool| -> Vec<usize> {
            let engines = pool.engines.by_width.iter().flatten();
            engines.map(VectorKeccakEngine::capacity).collect()
        };
        assert_eq!(pool.engines.by_width.len(), 3);
        for (n, widths) in [(1, vec![1]), (3, vec![1, 4]), (6, vec![1, 2, 4])] {
            let mut states = distinct_states(n);
            let expected = permuted(&states);
            pool.permute_slice(&mut states).unwrap();
            assert_eq!(states, expected, "n={n}");
            assert_eq!(built(&pool), widths, "n={n}");
        }
        // SN = 3 is not a power of two: widths 1, 2 and 3.
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 3, 1);
        let mut states = distinct_states(3 + 3 + 2 + 1);
        pool.permute_slice(&mut states[..8]).unwrap();
        pool.permute_slice(&mut states[8..]).unwrap();
        assert_eq!(built(&pool), vec![1, 2, 3]);
    }

    #[test]
    fn total_cycles_are_invariant_under_worker_count() {
        let mut totals = Vec::new();
        let mut outputs = Vec::new();
        for workers in [1, 2, 4, 5] {
            let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, workers);
            let mut states = distinct_states(9);
            pool.permute_slice(&mut states).unwrap();
            let metrics = pool.last_metrics().unwrap();
            totals.push(metrics.total_cycles);
            outputs.push(states);
            assert!(metrics.max_cycles <= metrics.total_cycles);
            if workers > 1 {
                assert!(metrics.speedup() > 1.0, "{workers} workers must overlap");
            }
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "total simulated work must not depend on the worker count: {totals:?}"
        );
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "outputs must be bit-identical for every worker count"
        );
    }

    /// One killed worker: the dispatch that touches it fails once with
    /// `WorkerLost`, the pool shrinks, and a retry of the same states
    /// completes correctly on the survivors.
    fn check_degradation(killed: usize) {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 3);
        // Warm every worker up first so the kill lands on a pool whose
        // helpers are running.
        let mut warmup = distinct_states(6);
        pool.permute_slice(&mut warmup).expect("healthy dispatch");
        assert_eq!(pool.alive_workers(), 3);
        assert_eq!(pool.capacity(), 6);

        pool.kill_worker(killed);
        let mut states = distinct_states(7);
        let failed = pool.permute_slice(&mut states);
        assert_eq!(
            failed,
            Err(PoolError::WorkerLost { worker: killed }),
            "killed={killed}"
        );
        assert_eq!(pool.alive_workers(), 2);
        assert_eq!(pool.capacity(), 4, "capacity shrinks with the pool");

        // Retry from the original inputs: the survivors absorb the work.
        let mut states = distinct_states(7);
        let expected = permuted(&states);
        pool.permute_slice(&mut states).expect("degraded dispatch");
        assert_eq!(states, expected, "outputs correct on 2 survivors");
        let metrics = pool.last_metrics().expect("metrics after success");
        assert_eq!(metrics.effective_workers, 2, "effective workers drop");
        assert_eq!(metrics.passes, 4);
        assert_eq!(metrics.per_engine[killed], EngineLoad::default());
        let survivors: Vec<u64> = (0..3)
            .filter(|&w| w != killed)
            .map(|w| metrics.per_engine[w].passes)
            .collect();
        assert_eq!(survivors, vec![2, 2], "round-robin over the survivors");
    }

    #[test]
    fn killed_worker_fails_one_dispatch_then_pool_degrades() {
        check_degradation(1);
    }

    #[test]
    fn killing_the_callers_slot_is_observed_like_a_helpers() {
        // Slot 0's bucket runs on the calling thread; its death must
        // still fail exactly one dispatch, and the caller then runs the
        // first survivor's bucket.
        check_degradation(0);
    }

    #[test]
    fn killing_an_unspawned_worker_is_observed_at_dispatch() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 2);
        pool.kill_worker(1);
        assert_eq!(pool.alive_workers(), 2, "death not yet observed");
        let mut states = distinct_states(4);
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::WorkerLost { worker: 1 })
        );
        assert_eq!(pool.alive_workers(), 1);
        // Idempotent: killing a dead worker again changes nothing.
        pool.kill_worker(1);
        let mut states = distinct_states(4);
        let expected = permuted(&states);
        pool.permute_slice(&mut states).expect("survivor dispatch");
        assert_eq!(states, expected);
        assert_eq!(pool.spawned_workers(), 0, "one survivor needs no helper");
    }

    #[test]
    fn losing_every_worker_reports_all_workers_lost() {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 2);
        pool.kill_worker(0);
        pool.kill_worker(1);
        let mut states = distinct_states(4);
        // One dispatch touching both slots observes both deaths and
        // reports the lowest-numbered one.
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::WorkerLost { worker: 0 })
        );
        let mut states = distinct_states(4);
        assert_eq!(
            pool.permute_slice(&mut states),
            Err(PoolError::AllWorkersLost)
        );
        assert_eq!(pool.alive_workers(), 0);
        assert_eq!(pool.capacity(), 0);
        // Empty dispatches still succeed (nothing to schedule).
        pool.permute_slice(&mut []).expect("empty is a no-op");
    }

    #[test]
    fn pool_error_formats_human_readably() {
        assert_eq!(
            PoolError::WorkerLost { worker: 3 }.to_string(),
            "pool worker 3 died mid-dispatch"
        );
        assert_eq!(
            PoolError::AllWorkersLost.to_string(),
            "every pool worker has died"
        );
        let trap: PoolError = Trap::VectorConfig { reason: "test" }.into();
        assert!(trap.to_string().contains("trapped"));
    }

    #[test]
    fn pool_is_a_backend_with_pooled_width() {
        let pool = EnginePool::new(KernelKind::E64Lmul8, 3, 4);
        assert_eq!(pool.parallel_states(), 12);
        assert_eq!(pool.capacity(), 12);
        assert_eq!(pool.workers(), 4);
        assert_eq!(pool.states_per_engine(), 3);
    }
}
