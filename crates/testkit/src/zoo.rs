//! The workload zoo: stock [`WorkloadSpec`]s covering the engine's
//! interesting regimes.
//!
//! Each entry is small enough to run under the one-step-at-a-time
//! simulator in well under a second, yet shaped to stress a distinct
//! mechanism: the stress suite's transfer mix, one hot
//! cross-shard pair's skew, Example 1's long readers, §5 batch jobs,
//! read-mostly fanout, adversarial cross-shard chains, a boundary
//! flood, zero-think-time contention, durable runs that crash once or
//! twice and recover, and four disk faults (a transient append burst,
//! a failed fsync, a full device, a corrupt sealed segment) — 14 in
//! [`all`]. CI sweeps the whole zoo over a seed matrix (`sim_zoo`
//! binary); the determinism self-test replays each spec twice per seed.

use crate::workload::{DiskFault, FaultPlan, Profile, WorkloadSpec};
use deltx_engine::CrashPoint;

/// The stress suite's banking mix (`stress_replay::run_mix` ported to
/// the simulator): uniform transfers, 30% cross-shard, client
/// rollbacks every 17th transaction.
pub fn transfer_mix() -> WorkloadSpec {
    WorkloadSpec {
        name: "transfer_mix".into(),
        sessions: 6,
        txns_per_session: 40,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 30 },
        abort_every: 17,
        think_ns: 2_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Hot-pair skew: most traffic hammers one hot
/// cross-shard pair, forcing escalated commits to contend on the same
/// closure while GC sweeps race them.
pub fn hot_key_skew() -> WorkloadSpec {
    WorkloadSpec {
        name: "hot_key_skew".into(),
        sessions: 6,
        txns_per_session: 40,
        entities: 24,
        shards: 8,
        profile: Profile::HotKeySkew { cross_pct: 30 },
        abort_every: 0,
        think_ns: 2_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Example 1's nemesis shape: two long analytics readers pin versions
/// while transfer traffic churns — deletion must wait for exactly the
/// right moment and the graph must stay bounded anyway.
pub fn long_readers() -> WorkloadSpec {
    WorkloadSpec {
        name: "long_readers".into(),
        sessions: 6,
        txns_per_session: 30,
        entities: 16,
        shards: 4,
        profile: Profile::LongReaders {
            readers: 2,
            scan: 8,
        },
        abort_every: 0,
        think_ns: 4_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// §5 batch jobs: predeclared contiguous blocks read and rewritten
/// atomically — wide write sets, heavy same-block conflicts.
pub fn batch_jobs() -> WorkloadSpec {
    WorkloadSpec {
        name: "batch_jobs".into(),
        sessions: 4,
        txns_per_session: 30,
        entities: 16,
        shards: 4,
        profile: Profile::Batch { block: 4 },
        abort_every: 11,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Read-mostly fanout: wide reads, rare counter bumps. Balance
/// conservation does not apply; the other oracles all do.
pub fn read_mostly_fanout() -> WorkloadSpec {
    WorkloadSpec {
        name: "read_mostly_fanout".into(),
        sessions: 6,
        txns_per_session: 40,
        entities: 24,
        shards: 4,
        profile: Profile::ReadMostly { fan: 6 },
        abort_every: 0,
        think_ns: 2_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Adversarial cross-shard chains: every commit escalates across a
/// window of consecutive shards, overlapping its neighbors' closures —
/// the worst case for own-shards-first locking.
pub fn cross_shard_chain() -> WorkloadSpec {
    WorkloadSpec {
        name: "cross_shard_chain".into(),
        sessions: 6,
        txns_per_session: 25,
        entities: 32,
        shards: 8,
        profile: Profile::CrossShardChain { len: 4 },
        abort_every: 13,
        think_ns: 2_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// A durable transfer run that crashes its WAL mid-flight (a torn
/// write inside a record), drains, recovers, and checks the recovered
/// image conserves the balance sum.
pub fn durable_crash_mid_run() -> WorkloadSpec {
    WorkloadSpec {
        name: "durable_crash_mid_run".into(),
        sessions: 4,
        txns_per_session: 30,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::Crash {
            after_commits: 40,
            point: CrashPoint::TornWriteAt(11),
        },
    }
}

/// A boundary-summary flood: two shards, all-cross-shard transfers
/// over a wide entity universe, so every transaction is a boundary
/// transaction and each shard's boundary index runs far past one
/// 64-bit word. Multi-word reach masks are exactly where the PR-4
/// trailing-word `BitSet` family of bugs lives — the end-of-wave
/// summary audit turns any mask pollution into a hard failure the
/// schedule search can steer toward.
pub fn boundary_flood() -> WorkloadSpec {
    WorkloadSpec {
        name: "boundary_flood".into(),
        sessions: 6,
        txns_per_session: 60,
        entities: 192,
        shards: 2,
        profile: Profile::Transfer { cross_pct: 100 },
        abort_every: 0,
        think_ns: 1_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Maximum-contention hot spot: eight sessions, eight entities, two
/// shards, zero think time — every session is perpetually mid-txn, so
/// conflict cycles, scheduler rejections, abort-driven mask
/// recomputes, and commit-time deletion all pile onto the same
/// instants. The regime where GC deletions overlap *active*
/// transactions — exactly where a dropped `D(G, N)` bridge becomes an
/// acceptance divergence, which is why the schedule search hunts the
/// drop-bridge planted bug here.
pub fn hot_contention() -> WorkloadSpec {
    WorkloadSpec {
        name: "hot_contention".into(),
        sessions: 8,
        txns_per_session: 50,
        entities: 8,
        shards: 2,
        profile: Profile::Transfer { cross_pct: 50 },
        abort_every: 5,
        think_ns: 0,
        gc_interval_us: 20,
        durable: false,
        fault: FaultPlan::None,
    }
}

/// Crash twice, recover twice, finish clean — three engine lifetimes
/// inside one simulated timeline. Each recovery replays the WAL on the
/// sim runtime and the recovered engine immediately takes new traffic,
/// so the search explores recovery interleavings too.
pub fn durable_crash_recover_twice() -> WorkloadSpec {
    WorkloadSpec {
        name: "durable_crash_recover_twice".into(),
        sessions: 4,
        txns_per_session: 30,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::CrashLoop {
            after_commits: 30,
            point: CrashPoint::MidFlushTorn,
            waves: 3,
        },
    }
}

/// A transient append burst under live traffic: the device fails two
/// consecutive appends mid-run and the flusher's bounded backoff must
/// absorb them invisibly — health stays `Ok`, every oracle passes,
/// and the recovered image still conserves the balance sum.
pub fn disk_transient_appends() -> WorkloadSpec {
    WorkloadSpec {
        name: "disk_transient_appends".into(),
        sessions: 4,
        txns_per_session: 25,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::Disk {
            fault: DiskFault::TransientAppend { at: 2, burst: 2 },
        },
    }
}

/// The fsyncgate scenario: one fsync fails (and the device drops the
/// un-synced suffix), the log must poison itself fail-stop, and the
/// engine must flip to loud read-only — reads served, writes refused
/// with `EngineError::Durability`, nothing lost silently.
pub fn disk_fsync_poison() -> WorkloadSpec {
    WorkloadSpec {
        name: "disk_fsync_poison".into(),
        sessions: 4,
        txns_per_session: 25,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::Disk {
            fault: DiskFault::FsyncFail { at: 1 },
        },
    }
}

/// A nearly-full device: appends hit ENOSPC and park under backoff
/// while GC pressure races to retire sealed segments. Ends either
/// rescued (health `Ok`) or loudly read-only — never wedged, and the
/// surviving log always replays to a conserving image.
pub fn disk_enospc_pressure() -> WorkloadSpec {
    WorkloadSpec {
        name: "disk_enospc_pressure".into(),
        sessions: 4,
        txns_per_session: 25,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::Disk {
            fault: DiskFault::Capacity { bytes: 6 * 1024 },
        },
    }
}

/// Bit rot in a sealed mid-log segment, found by the recovery scrub:
/// `RecoverPolicy::Strict` must refuse the open naming the lost LSN
/// range and the `Quarantine` escape hatch; `Quarantine` must isolate
/// exactly the damaged segment and open with the survivors. A slower
/// sweeper tick keeps several sealed segments alive for the corruption
/// to target.
pub fn disk_corrupt_sealed_scrub() -> WorkloadSpec {
    WorkloadSpec {
        name: "disk_corrupt_sealed_scrub".into(),
        sessions: 4,
        txns_per_session: 30,
        entities: 16,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 25 },
        abort_every: 0,
        think_ns: 3_000,
        gc_interval_us: 400,
        durable: true,
        fault: FaultPlan::Disk {
            fault: DiskFault::CorruptSealed { sector: 0 },
        },
    }
}

/// Every stock scenario, in a stable order.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        transfer_mix(),
        hot_key_skew(),
        long_readers(),
        batch_jobs(),
        read_mostly_fanout(),
        cross_shard_chain(),
        durable_crash_mid_run(),
        boundary_flood(),
        hot_contention(),
        durable_crash_recover_twice(),
        disk_transient_appends(),
        disk_fsync_poison(),
        disk_enospc_pressure(),
        disk_corrupt_sealed_scrub(),
    ]
}
