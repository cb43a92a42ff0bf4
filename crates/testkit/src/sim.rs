//! The deterministic virtual scheduler behind [`VirtualRuntime`].
//!
//! # How one-at-a-time simulation works
//!
//! Every logical task (the root test body, each workload session, the
//! workload's sweeper) runs on a real OS thread — but at most **one** of them is ever runnable: the thread
//! whose task id equals `current`. Everyone else blocks on a condvar.
//! Whenever the running task reaches a scheduling point — a
//! [`Runtime::yield_now`], a sleep, an eventcount wait, a join — it
//! hands the token back to the scheduler, which picks the next task
//! from the ready set. Concurrency is therefore an *explicit
//! interleaving of logical steps*, and the same seed (plus the same
//! [`PickPolicy`]) replays the same interleaving bit for bit.
//!
//! # Schedule decision traces
//!
//! Every scheduling decision is a `(runnable set, chosen task)` pair.
//! With [`SimConfig::record_trace`] the scheduler records them all as
//! a [`ScheduleTrace`] — an explicit, serializable coordinate for the
//! run that is *stronger* than the seed: a trace (or any prefix of
//! one) can be replayed under [`PickPolicy::Trace`], which follows the
//! recorded picks while they remain valid and falls back to seeded
//! random choice afterwards. That makes traces minimizable (drop
//! decisions, see if the failure survives) and mutable (replay a
//! prefix, explore a fresh suffix) — the substrate for `sim_search`.
//!
//! # Scheduling policies
//!
//! * [`PickPolicy::Random`] — uniform over the ready set, one RNG draw
//!   per decision (the PR-6 behavior, and the default).
//! * [`PickPolicy::Pct`] — PCT-style priority scheduling: every task
//!   gets a random priority at spawn, the highest-priority ready task
//!   always runs, and at `depth` pre-drawn change points the running
//!   leader is demoted below everyone else. Rare-schedule bugs that
//!   uniform random sampling misses often sit a few priority
//!   inversions away.
//! * [`PickPolicy::Trace`] — replay a recorded decision list.
//!
//! # Virtual time
//!
//! The clock ([`Runtime::now`]) only moves when nothing is runnable:
//! it then jumps straight to the earliest sleep deadline and readies
//! the tasks that deadline releases. Timers are exact, idle time is
//! free, and a "2 ms" sleep elapses in microseconds of wall time. The
//! model is a machine that is infinitely fast between timer fires — so
//! timed work (the sweeper's ticks) happens exactly when the workload
//! leaves idle gaps (think time), never "by luck".
//!
//! # Why the engine stays deterministic under this scheduler
//!
//! No engine or WAL code path blocks, sleeps, or yields while holding
//! a shard or log lock (waits happen after locks are released — see
//! the commit path), so the std mutexes inside the engine are always
//! uncontended here and never order tasks. All cross-task ordering
//! flows through this scheduler's choices; everything else in the
//! engine is a pure function of that order (hash-map iteration order
//! can vary between runs, but it only feeds order-insensitive
//! decisions — set membership, bitmask fixpoints, reachability — a
//! property the determinism self-test pins down).
//!
//! # Failure surfaces
//!
//! A deadlock (no runnable task, no pending timer, live tasks
//! remaining) panics with the seed, a task-state dump, and the
//! wait-for edges (who waits on an event created by whom). A panic in
//! any task is caught, recorded, and re-raised from
//! [`VirtualRuntime::run`] with the seed attached — a red run is
//! always replayable by its seed alone. [`VirtualRuntime::run_cfg`]
//! instead *captures* the failure as a [`SimFailure`] so search
//! drivers can treat a red schedule as data rather than a panic.

use deltx_runtime::{RtEvent, Runtime, TaskHandle};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

type TaskId = usize;
type EventId = usize;

thread_local! {
    /// Which simulation task this OS thread carries (None off-task).
    static CURRENT: Cell<Option<TaskId>> = const { Cell::new(None) };
}

/// SplitMix64: the scheduler's only randomness, advanced once per
/// random scheduling decision (and once per PCT priority draw).
fn next_rng(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheduling decision: the ready set the scheduler saw (sorted
/// ascending — task ids come out of an ordered map) and the task it
/// handed the token to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Task ids that were runnable at this decision point.
    pub ready: Vec<usize>,
    /// The task that got the token.
    pub chosen: usize,
}

/// A serializable schedule coordinate: the full (or a shrunk) list of
/// scheduling decisions of one run. Replayed via [`PickPolicy::Trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Decisions in the order the scheduler took them.
    pub decisions: Vec<Decision>,
}

impl ScheduleTrace {
    /// Line-based text form: one `d <chosen> <r,r,...>` line per
    /// decision. Embedded verbatim in repro files.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str("d ");
            out.push_str(&d.chosen.to_string());
            out.push(' ');
            let ready: Vec<String> = d.ready.iter().map(usize::to_string).collect();
            out.push_str(&ready.join(","));
            out.push('\n');
        }
        out
    }

    /// Parses the [`ScheduleTrace::to_text`] form. Blank lines are
    /// skipped; anything else malformed is an error.
    pub fn from_text(text: &str) -> Result<ScheduleTrace, String> {
        let mut decisions = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("d") {
                return Err(format!(
                    "trace line {}: expected `d <chosen> <ready>`",
                    i + 1
                ));
            }
            let chosen: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("trace line {}: bad chosen task id", i + 1))?;
            let ready: Vec<usize> = match parts.next() {
                Some(r) => r
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse()
                            .map_err(|_| format!("trace line {}: bad ready id `{s}`", i + 1))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            decisions.push(Decision { ready, chosen });
        }
        Ok(ScheduleTrace { decisions })
    }

    /// The first `n` decisions — the mutation primitive for
    /// coverage-guided search (replay a prefix, explore a new suffix).
    pub fn truncated(&self, n: usize) -> ScheduleTrace {
        ScheduleTrace {
            decisions: self.decisions[..n.min(self.decisions.len())].to_vec(),
        }
    }
}

/// How the scheduler picks among ready tasks.
#[derive(Clone, Debug)]
pub enum PickPolicy {
    /// Uniform random over the ready set (the default).
    Random,
    /// PCT-style priority scheduling with `depth` change points
    /// spread over an estimated run length of `expected_len`
    /// scheduling decisions.
    Pct {
        /// Number of priority-change points.
        depth: usize,
        /// Estimated total decisions in the run (from a probe run's
        /// switch count); change points are drawn uniformly below it.
        expected_len: u64,
    },
    /// Replay a recorded decision list; after it is exhausted (or
    /// when a recorded pick is no longer runnable) fall back to
    /// seeded random choice.
    Trace(ScheduleTrace),
}

/// Full configuration of one simulated run: the seed, the scheduling
/// policy, and whether to record the decision trace.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seeds the scheduler RNG (and, by convention, workload RNGs).
    pub seed: u64,
    /// Scheduling policy.
    pub policy: PickPolicy,
    /// Record every decision as a [`ScheduleTrace`].
    pub record_trace: bool,
}

impl SimConfig {
    /// The classic seed-only configuration: uniform random picks, no
    /// trace recording — what [`VirtualRuntime::run`] uses.
    pub fn random(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            policy: PickPolicy::Random,
            record_trace: false,
        }
    }
}

/// A captured failure of a simulated run (from
/// [`VirtualRuntime::run_cfg`]): the seed and a human-readable
/// headline, plus enough state to re-raise exactly as
/// [`VirtualRuntime::run`] would have panicked.
pub struct SimFailure {
    /// Seed of the failing run.
    pub seed: u64,
    /// Failure headline: the panic message, deadlock report, or
    /// leaked-task list.
    pub message: String,
    task_panic: Option<String>,
    leaked: Vec<String>,
    root_payload: Option<Box<dyn std::any::Any + Send>>,
}

impl std::fmt::Debug for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFailure")
            .field("seed", &self.seed)
            .field("message", &self.message)
            .finish()
    }
}

impl SimFailure {
    /// The first task-thread panic message, if a spawned task (rather
    /// than the root) raised the primary failure — e.g. the deadlock
    /// report when the detector fired while a worker held the token.
    pub fn task_panic(&self) -> Option<&str> {
        self.task_panic.as_deref()
    }

    /// Re-raises this failure with the exact panic behavior of
    /// [`VirtualRuntime::run`].
    pub fn raise(self) -> ! {
        if let Some(p) = self.root_payload {
            if let Some(m) = self.task_panic {
                eprintln!("deltx-sim: first task failure (seed {}): {m}", self.seed);
            }
            std::panic::resume_unwind(p);
        }
        if let Some(m) = self.task_panic {
            panic!("deltx-sim: task panicked (seed {}): {m}", self.seed);
        }
        panic!(
            "deltx-sim: tasks still live at end of run (seed {}): {:?} — join every spawned \
             task (dropping the engine joins its tasks)",
            self.seed, self.leaked
        );
    }
}

/// What a finished run reports besides the closure's return value:
/// the recorded trace (if asked for), the engine-event signature set,
/// and scheduler counters.
#[derive(Debug)]
pub struct SimRunInfo {
    /// The recorded decision trace (when `record_trace` was set).
    pub trace: Option<ScheduleTrace>,
    /// Distinct `(kind, value)` engine events seen (via
    /// [`Runtime::emit`]) — the coverage signature of the schedule.
    pub signatures: BTreeSet<(&'static str, u64)>,
    /// Scheduling decisions taken.
    pub switches: u64,
    /// Under [`PickPolicy::Trace`]: decisions where the recorded pick
    /// was not runnable and the scheduler fell back to random.
    pub divergences: u64,
}

/// Where a task stands with the scheduler.
enum Run {
    /// Holds the token (at most one task at a time).
    Running,
    /// Eligible for the next scheduling decision.
    Ready,
    /// Off the clock until virtual time reaches `until`.
    Sleeping { until: u64 },
    /// Parked on an eventcount until its next notify.
    Waiting { ev: EventId },
    /// Done; joiners have been released.
    Finished,
}

impl Run {
    fn label(&self) -> String {
        match self {
            Run::Running => "running".into(),
            Run::Ready => "ready".into(),
            Run::Sleeping { until } => format!("sleeping until {until}ns"),
            Run::Waiting { ev } => format!("waiting on ev{ev}"),
            Run::Finished => "finished".into(),
        }
    }
}

struct Task {
    name: String,
    run: Run,
    /// Bumped when this task finishes; joiners wait on it.
    done_ev: EventId,
}

/// An eventcount's scheduler-side state: the epoch plus the task that
/// created it (for wait-for edges in the deadlock report; a spawned
/// task's `done_ev` is credited to the task itself, so "A waits on an
/// event created by B" reads as the join edge A → B).
struct EventSt {
    epoch: u64,
    creator: Option<TaskId>,
}

/// Policy-specific scheduler state.
enum PolicyState {
    Random,
    Pct {
        /// Priority per live task; highest ready priority runs.
        prio: BTreeMap<TaskId, u64>,
        /// Decision indices at which the leader is demoted, sorted.
        change_at: Vec<u64>,
        next_change: usize,
        /// Next demotion priority (descending, below all random ones).
        low: u64,
    },
    Trace {
        decisions: Vec<Decision>,
        pos: usize,
        divergences: u64,
    },
}

impl PolicyState {
    fn new(policy: &PickPolicy, rng: &mut u64) -> PolicyState {
        match policy {
            PickPolicy::Random => PolicyState::Random,
            PickPolicy::Pct {
                depth,
                expected_len,
            } => {
                let span = (*expected_len).max(1);
                let mut change_at: Vec<u64> = (0..*depth).map(|_| next_rng(rng) % span).collect();
                change_at.sort_unstable();
                PolicyState::Pct {
                    prio: BTreeMap::new(),
                    change_at,
                    next_change: 0,
                    // Demotions count down from depth, staying below
                    // every randomly drawn priority (which is >= 2^32).
                    low: *depth as u64,
                }
            }
            PickPolicy::Trace(t) => PolicyState::Trace {
                decisions: t.decisions.clone(),
                pos: 0,
                divergences: 0,
            },
        }
    }

    /// Called for every task at creation (PCT draws its priority).
    fn on_task_created(&mut self, rng: &mut u64, id: TaskId) {
        if let PolicyState::Pct { prio, .. } = self {
            prio.insert(id, next_rng(rng) | (1 << 32));
        }
    }
}

struct SimState {
    rng: u64,
    /// Virtual nanoseconds since the simulation started.
    now: u64,
    current: Option<TaskId>,
    tasks: BTreeMap<TaskId, Task>,
    next_task: TaskId,
    /// Eventcount epochs + creators.
    events: BTreeMap<EventId, EventSt>,
    next_event: EventId,
    /// First panic payload from any task (re-raised at run end).
    panic: Option<String>,
    /// The simulation aborted (deadlock or propagated panic); every
    /// parked thread unwinds instead of waiting forever.
    dead: bool,
    /// Scheduling decisions taken (diagnostic).
    switches: u64,
    policy: PolicyState,
    /// Decision recording (Some when `record_trace`).
    trace: Option<Vec<Decision>>,
    /// Engine-event signatures reported via [`Runtime::emit`].
    signatures: BTreeSet<(&'static str, u64)>,
}

struct SimShared {
    seed: u64,
    m: Mutex<SimState>,
    cv: Condvar,
}

impl SimShared {
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn alloc_event(st: &mut SimState, creator: Option<TaskId>) -> EventId {
        let id = st.next_event;
        st.next_event += 1;
        st.events.insert(id, EventSt { epoch: 0, creator });
        id
    }

    /// Bumps `ev`'s epoch and readies every task parked on it.
    fn notify_event(st: &mut SimState, ev: EventId) {
        if let Some(e) = st.events.get_mut(&ev) {
            e.epoch = e.epoch.wrapping_add(1);
        }
        for t in st.tasks.values_mut() {
            if matches!(t.run, Run::Waiting { ev: we } if we == ev) {
                t.run = Run::Ready;
            }
        }
    }

    /// The wait-for edges of the current task state, one line per
    /// parked task naming the event and its creating task.
    fn wait_for_edges(st: &SimState) -> Vec<String> {
        let mut edges = Vec::new();
        for (id, t) in &st.tasks {
            if let Run::Waiting { ev } = t.run {
                let target = st
                    .events
                    .get(&ev)
                    .and_then(|e| e.creator)
                    .and_then(|c| st.tasks.get(&c).map(|ct| (c, ct.name.clone())));
                match target {
                    Some((c, cname)) => edges.push(format!(
                        "  task {id} `{}` waits on ev{ev} created by task {c} `{cname}`",
                        t.name
                    )),
                    None => edges.push(format!(
                        "  task {id} `{}` waits on ev{ev} (creator unknown)",
                        t.name
                    )),
                }
            }
        }
        edges
    }

    /// Picks the next task to hold the token, advancing virtual time
    /// when nothing is ready. Panics (after marking the sim dead) on
    /// deadlock: live tasks exist but none can ever run again.
    fn pick_next(&self, st: &mut SimState) {
        st.current = None;
        loop {
            let ready: Vec<TaskId> = st
                .tasks
                .iter()
                .filter(|(_, t)| matches!(t.run, Run::Ready))
                .map(|(id, _)| *id)
                .collect();
            if !ready.is_empty() {
                // Split-borrow the fields the policies need.
                let SimState {
                    rng,
                    switches,
                    policy,
                    trace,
                    ..
                } = st;
                let len = ready.len() as u64;
                let pick = match policy {
                    PolicyState::Random => ready[(next_rng(rng) % len) as usize],
                    PolicyState::Pct {
                        prio,
                        change_at,
                        next_change,
                        low,
                    } => {
                        let leader = |prio: &BTreeMap<TaskId, u64>| {
                            *ready
                                .iter()
                                .max_by_key(|id| {
                                    (prio.get(*id).copied().unwrap_or(0), usize::MAX - **id)
                                })
                                .expect("nonempty ready set")
                        };
                        while *next_change < change_at.len() && change_at[*next_change] <= *switches
                        {
                            let demote = leader(prio);
                            prio.insert(demote, *low);
                            *low = low.saturating_sub(1);
                            *next_change += 1;
                        }
                        leader(prio)
                    }
                    PolicyState::Trace {
                        decisions,
                        pos,
                        divergences,
                    } => {
                        let mut choice = None;
                        if *pos < decisions.len() {
                            let want = decisions[*pos].chosen;
                            *pos += 1;
                            if ready.contains(&want) {
                                choice = Some(want);
                            } else {
                                *divergences += 1;
                            }
                        }
                        choice.unwrap_or_else(|| ready[(next_rng(rng) % len) as usize])
                    }
                };
                if let Some(rec) = trace {
                    rec.push(Decision {
                        ready: ready.clone(),
                        chosen: pick,
                    });
                }
                st.tasks.get_mut(&pick).expect("picked task").run = Run::Running;
                st.current = Some(pick);
                st.switches += 1;
                return;
            }
            // Nothing ready: jump the clock to the earliest wake-up.
            let next_wake = st
                .tasks
                .values()
                .filter_map(|t| match t.run {
                    Run::Sleeping { until } => Some(until),
                    _ => None,
                })
                .min();
            match next_wake {
                Some(w) => {
                    st.now = st.now.max(w);
                    let now = st.now;
                    for t in st.tasks.values_mut() {
                        if matches!(t.run, Run::Sleeping { until } if until <= now) {
                            t.run = Run::Ready;
                        }
                    }
                }
                None => {
                    if st.tasks.values().all(|t| matches!(t.run, Run::Finished)) {
                        // Everyone is done; no token needed.
                        return;
                    }
                    st.dead = true;
                    let dump: Vec<String> = st
                        .tasks
                        .iter()
                        .map(|(id, t)| format!("  task {id} `{}`: {}", t.name, t.run.label()))
                        .collect();
                    let mut edges = Self::wait_for_edges(st);
                    if edges.is_empty() {
                        edges.push("  (none)".into());
                    }
                    let report = format!(
                        "deltx-sim DEADLOCK at t={}ns (seed {}): no runnable task and no \
                         pending timer — replay with DELTX_SEED={}\n{}\nwait-for edges:\n{}",
                        st.now,
                        self.seed,
                        self.seed,
                        dump.join("\n"),
                        edges.join("\n")
                    );
                    // When a worker thread is the detector, deposit the
                    // report while still holding the lock: the root's
                    // secondary "aborted" unwind races this thread's
                    // own finish_task, and must not find `panic` empty.
                    // (The root's own panic already IS the primary.)
                    if current_task() != 0 {
                        st.panic.get_or_insert(report.clone());
                    }
                    self.cv.notify_all();
                    panic!("{report}");
                }
            }
        }
    }

    /// Hands the token back (the caller has already set its own run
    /// state), then parks until re-scheduled.
    fn resched_and_park(&self, mut st: MutexGuard<'_, SimState>, me: TaskId) {
        self.pick_next(&mut st);
        self.cv.notify_all();
        loop {
            if st.dead {
                panic!(
                    "deltx-sim: simulation aborted (seed {}) — see the primary failure",
                    self.seed
                );
            }
            if st.current == Some(me) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks `me` finished, releases joiners, and passes the token on.
    fn finish_task(&self, me: TaskId, panic_msg: Option<String>) {
        let mut st = self.lock();
        if let Some(m) = panic_msg {
            st.panic.get_or_insert(m);
        }
        let done_ev = {
            let t = st.tasks.get_mut(&me).expect("finishing task");
            t.run = Run::Finished;
            t.done_ev
        };
        Self::notify_event(&mut st, done_ev);
        if !st.dead && st.current == Some(me) {
            self.pick_next(&mut st);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Blocks the calling task until `target` finishes.
    fn join_task(&self, target: TaskId) {
        let me = current_task();
        loop {
            let mut st = self.lock();
            if st.dead {
                panic!(
                    "deltx-sim: simulation aborted (seed {}) — see the primary failure",
                    self.seed
                );
            }
            let t = st.tasks.get(&target).expect("join target");
            if matches!(t.run, Run::Finished) {
                return;
            }
            let done_ev = t.done_ev;
            st.tasks.get_mut(&me).expect("joiner").run = Run::Waiting { ev: done_ev };
            self.resched_and_park(st, me);
        }
    }
}

fn current_task() -> TaskId {
    CURRENT
        .with(|c| c.get())
        .expect("deltx-sim: runtime call from a thread that is not a simulation task")
}

fn panic_payload_str(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Resets the thread's task registration even on unwind.
struct TlsGuard;

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(None));
    }
}

/// The deterministic simulation runtime: implements [`Runtime`] over a
/// seeded one-task-at-a-time scheduler under virtual time. Construct
/// via [`VirtualRuntime::run`] (panic on failure) or
/// [`VirtualRuntime::run_cfg`] (failure as data, policy + trace
/// control), which register the calling thread as the root task.
pub struct VirtualRuntime {
    shared: Arc<SimShared>,
}

impl std::fmt::Debug for VirtualRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VirtualRuntime(seed {})", self.shared.seed)
    }
}

impl VirtualRuntime {
    /// Runs `f` as the root task of a fresh simulation seeded with
    /// `seed`. Every task `f` (transitively) spawns must be joined
    /// before it returns — dropping the engine does that. Panics from
    /// any task are re-raised here with the seed attached.
    pub fn run<T>(seed: u64, f: impl FnOnce(&Arc<VirtualRuntime>) -> T) -> T {
        let (out, _info) = Self::run_cfg(&SimConfig::random(seed), f);
        match out {
            Ok(v) => v,
            Err(fail) => fail.raise(),
        }
    }

    /// Like [`VirtualRuntime::run`], but under an explicit
    /// [`SimConfig`] (scheduling policy, trace recording), and with
    /// failures *captured* instead of panicking: a red run comes back
    /// as `Err(SimFailure)` alongside the [`SimRunInfo`] (trace,
    /// signatures, counters) — which is reported for red and green
    /// runs alike, so search drivers can mine failing schedules.
    pub fn run_cfg<T>(
        cfg: &SimConfig,
        f: impl FnOnce(&Arc<VirtualRuntime>) -> T,
    ) -> (Result<T, SimFailure>, SimRunInfo) {
        let seed = cfg.seed;
        let mut rng = seed ^ 0xA076_1D64_78BD_642F; // decorrelate from workload RNGs
        let mut policy = PolicyState::new(&cfg.policy, &mut rng);
        policy.on_task_created(&mut rng, 0);
        let shared = Arc::new(SimShared {
            seed,
            m: Mutex::new(SimState {
                rng,
                now: 0,
                current: Some(0),
                tasks: BTreeMap::new(),
                next_task: 1,
                events: BTreeMap::new(),
                next_event: 0,
                panic: None,
                dead: false,
                switches: 0,
                policy,
                trace: cfg.record_trace.then(Vec::new),
                signatures: BTreeSet::new(),
            }),
            cv: Condvar::new(),
        });
        {
            let mut st = shared.lock();
            let done_ev = SimShared::alloc_event(&mut st, Some(0));
            st.tasks.insert(
                0,
                Task {
                    name: "root".into(),
                    run: Run::Running,
                    done_ev,
                },
            );
        }
        let rt = Arc::new(VirtualRuntime {
            shared: Arc::clone(&shared),
        });
        CURRENT.with(|c| c.set(Some(0)));
        let _tls = TlsGuard;
        let out = catch_unwind(AssertUnwindSafe(|| f(&rt)));

        let mut st = shared.lock();
        let task_panic = st.panic.take();
        let leaked: Vec<String> = st
            .tasks
            .iter()
            .filter(|(id, t)| **id != 0 && !matches!(t.run, Run::Finished))
            .map(|(_, t)| t.name.clone())
            .collect();
        if !leaked.is_empty() {
            // Wake the stranded threads so they unwind instead of
            // leaking parked forever — then fail loudly.
            st.dead = true;
            shared.cv.notify_all();
        }
        let info = SimRunInfo {
            trace: st.trace.take().map(|decisions| ScheduleTrace { decisions }),
            signatures: std::mem::take(&mut st.signatures),
            switches: st.switches,
            divergences: match &st.policy {
                PolicyState::Trace { divergences, .. } => *divergences,
                _ => 0,
            },
        };
        drop(st);
        let result = match out {
            Ok(v) => {
                if task_panic.is_some() || !leaked.is_empty() {
                    let message = match &task_panic {
                        Some(m) => format!("deltx-sim: task panicked (seed {seed}): {m}"),
                        None => format!(
                            "deltx-sim: tasks still live at end of run (seed {seed}): {leaked:?}"
                        ),
                    };
                    Err(SimFailure {
                        seed,
                        message,
                        task_panic,
                        leaked,
                        root_payload: None,
                    })
                } else {
                    Ok(v)
                }
            }
            Err(e) => {
                let message = panic_payload_str(e.as_ref());
                Err(SimFailure {
                    seed,
                    message,
                    task_panic,
                    leaked,
                    root_payload: Some(e),
                })
            }
        };
        (result, info)
    }

    /// The seed this simulation runs under.
    pub fn seed(&self) -> u64 {
        self.shared.seed
    }

    /// Scheduling decisions taken so far (a cheap determinism probe:
    /// two identical runs must agree on it).
    pub fn switches(&self) -> u64 {
        self.shared.lock().switches
    }
}

impl Runtime for VirtualRuntime {
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> TaskHandle {
        let shared = Arc::clone(&self.shared);
        let id = {
            let mut st = shared.lock();
            let id = st.next_task;
            st.next_task += 1;
            // Credit the done_ev to the new task itself, so a joiner's
            // wait-for edge points at the task being joined.
            let done_ev = SimShared::alloc_event(&mut st, Some(id));
            st.tasks.insert(
                id,
                Task {
                    name: name.to_string(),
                    run: Run::Ready,
                    done_ev,
                },
            );
            let SimState { rng, policy, .. } = &mut *st;
            policy.on_task_created(rng, id);
            id
        };
        let body_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                CURRENT.with(|c| c.set(Some(id)));
                let _tls = TlsGuard;
                // Park until first scheduled; a dead sim releases us
                // without ever running the body.
                let scheduled = {
                    let mut st = body_shared.lock();
                    loop {
                        if st.dead {
                            break false;
                        }
                        if st.current == Some(id) {
                            break true;
                        }
                        st = body_shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                };
                let msg = if scheduled {
                    catch_unwind(AssertUnwindSafe(f))
                        .err()
                        .map(|e| panic_payload_str(e.as_ref()))
                } else {
                    None
                };
                body_shared.finish_task(id, msg);
            })
            .expect("deltx-sim: task thread spawn failed");
        TaskHandle::new(Box::new(move || shared.join_task(id)))
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.shared.lock().now)
    }

    fn sleep(&self, d: Duration) {
        let me = current_task();
        let mut st = self.shared.lock();
        let until = st.now.saturating_add(d.as_nanos() as u64);
        st.tasks.get_mut(&me).expect("sleeper").run = Run::Sleeping { until };
        self.shared.resched_and_park(st, me);
    }

    fn yield_now(&self) {
        let me = current_task();
        let mut st = self.shared.lock();
        st.tasks.get_mut(&me).expect("yielder").run = Run::Ready;
        self.shared.resched_and_park(st, me);
    }

    fn event(&self) -> Arc<dyn RtEvent> {
        let creator = CURRENT.with(|c| c.get());
        let mut st = self.shared.lock();
        let id = SimShared::alloc_event(&mut st, creator);
        drop(st);
        Arc::new(SimEvent {
            shared: Arc::clone(&self.shared),
            id,
        })
    }

    fn emit(&self, kind: &'static str, value: u64) {
        self.shared.lock().signatures.insert((kind, value));
    }
}

/// Eventcount whose waits are scheduling points of the simulation.
struct SimEvent {
    shared: Arc<SimShared>,
    id: EventId,
}

impl RtEvent for SimEvent {
    fn prepare(&self) -> u64 {
        self.shared
            .lock()
            .events
            .get(&self.id)
            .expect("event")
            .epoch
    }

    fn wait(&self, key: u64) {
        let me = current_task();
        let mut st = self.shared.lock();
        if st.events.get(&self.id).expect("event").epoch != key {
            return; // notified between prepare and wait
        }
        st.tasks.get_mut(&me).expect("waiter").run = Run::Waiting { ev: self.id };
        self.shared.resched_and_park(st, me);
    }

    fn notify(&self) {
        // Not a scheduling point (mirrors condvar notify): readied
        // tasks run when the notifier next yields the token.
        let mut st = self.shared.lock();
        SimShared::notify_event(&mut st, self.id);
    }
}

/// Runs silenced while panic output is suppressed (see
/// [`silence_expected_panics`]).
static SILENCED_RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static SILENCE_HOOK: std::sync::Once = std::sync::Once::new();

/// Suppresses panic-hook output (message + backtrace) for the
/// duration of `f` — process-wide, reference-counted, panic-safe.
///
/// Search and minimization execute hundreds of schedules that are
/// *supposed* to fail; every failing probe is a caught panic, and the
/// default hook would flood the log with backtraces for failures the
/// caller treats as data. The hook chain is installed once and
/// restores normal printing the moment the last silenced scope exits,
/// so a genuine unexpected panic elsewhere still reports normally.
pub fn silence_expected_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::sync::atomic::Ordering;
    SILENCE_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SILENCED_RUNS.load(Ordering::SeqCst) == 0 {
                prev(info);
            }
        }));
    });
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SILENCED_RUNS.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }
    SILENCED_RUNS.fetch_add(1, Ordering::SeqCst);
    let _g = Guard;
    f()
}
