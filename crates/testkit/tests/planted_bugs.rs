//! Planted-bug regressions: reintroduce three known bugs behind the
//! `planted` feature's runtime toggles and assert the schedule search
//! actually finds them — within a CI-sized budget — and that the
//! minimizer shrinks each hunted failure to a small deterministic
//! repro.
//!
//! * `bitset_trailing_word` — the PR-4 `BitSet` family: equality that
//!   ignores a long operand's trailing words plus a `copy_from` that
//!   skips tail zeroing. Surfaces as a summary audit failure
//!   once boundary masks outgrow one 64-bit word (`boundary_flood`).
//! * `drop_gc_bridge` — GC deletion that forgets the paper's `D(G,N)`
//!   bridge arcs. Surfaces under perpetual contention
//!   (`hot_contention`), where abort-driven mask recomputes rebuild
//!   reachability from the bridgeless graph.
//! * `retry_after_fsync_fail` — a flusher that retries a failed fsync
//!   and acknowledges the batch. The `disk_fsync_poison` scenario's
//!   health oracle catches it on every schedule.
//!
//! The toggles are process-global, so every test serializes behind
//! one mutex and disarms through a drop guard even on panic.

#![cfg(feature = "planted")]

use deltx_testkit::minimize::{apply_planted, minimize, replay_repro, ReproFile};
use deltx_testkit::search::{search_spec, SearchConfig};
use deltx_testkit::{run_spec, zoo, WorkloadSpec};
use std::sync::Mutex;

/// The ISSUE's bound: a minimized repro carries at most this many
/// recorded scheduling decisions.
const MAX_MIN_DECISIONS: usize = 25;
/// Schedules the search may spend before the hunt counts as failed.
const SEARCH_BUDGET: usize = 60;
/// Schedules the minimizer may spend.
const MINIMIZE_BUDGET: usize = 200;

static TOGGLES: Mutex<()> = Mutex::new(());

/// Arms one planted bug for the closure and disarms it afterwards,
/// panic or not. Serializes against the other tests in this file.
fn with_planted<T>(bug: &str, f: impl FnOnce() -> T) -> T {
    let _lock = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    struct Disarm(String);
    impl Drop for Disarm {
        fn drop(&mut self) {
            let _ = apply_planted(std::slice::from_ref(&self.0), false);
        }
    }
    apply_planted(std::slice::from_ref(&bug.to_string()), true).expect("arm planted toggle");
    let _guard = Disarm(bug.to_string());
    f()
}

/// The full hunt, end to end: search finds the bug, the minimizer
/// shrinks it under the decision bound, the repro file round-trips
/// through its text form, and two replays of the repro agree.
fn hunt(bug: &str, spec: WorkloadSpec) {
    with_planted(bug, || {
        let cfg = SearchConfig::quick(SEARCH_BUDGET, 1);
        let outcome = search_spec(&spec, &cfg).expect("search runs");
        let found = outcome.failure.unwrap_or_else(|| {
            panic!(
                "search must find `{bug}` on {} within {SEARCH_BUDGET} schedules",
                spec.name
            )
        });

        let min = minimize(&found.spec, found.seed, &found.trace, MINIMIZE_BUDGET)
            .expect("minimizer starts from a reproducing failure");
        assert!(
            min.trace.decisions.len() <= MAX_MIN_DECISIONS,
            "`{bug}` repro must shrink to <= {MAX_MIN_DECISIONS} decisions, got {}",
            min.trace.decisions.len()
        );

        let repro = ReproFile {
            spec: min.spec,
            seed: min.seed,
            planted: vec![bug.to_string()],
            trace: min.trace,
        };
        let parsed = ReproFile::from_text(&repro.to_text()).expect("repro text parses back");
        assert_eq!(
            repro, parsed,
            "repro file must round-trip through its text form"
        );

        let (headline, deterministic) = replay_repro(&repro).expect("repro replays");
        assert!(
            headline.is_some(),
            "minimized `{bug}` repro must still fail on replay"
        );
        assert!(
            deterministic,
            "both replays of the `{bug}` repro must agree"
        );
    })
}

#[test]
fn search_finds_planted_bitset_trailing_word_bug() {
    hunt("bitset_trailing_word", zoo::boundary_flood());
}

#[test]
fn search_finds_planted_drop_gc_bridge_bug() {
    hunt("drop_gc_bridge", zoo::hot_contention());
}

/// The disk-fault battery's own planted bug: a writer that *retries*
/// a failed fsync instead of poisoning the log. Under the fsyncgate
/// model the device dropped the un-synced suffix, so the retry
/// "succeeds" with the data gone and lost commits get acknowledged —
/// the health assertion in the `disk_fsync_poison` scenario must
/// catch it immediately (every schedule fails, not just a rare one).
#[test]
fn disk_battery_catches_planted_retry_after_fsync_fail() {
    with_planted("retry_after_fsync_fail", || {
        let cfg = SearchConfig::quick(8, 1);
        let outcome = search_spec(&zoo::disk_fsync_poison(), &cfg).expect("search runs");
        let found = outcome.failure.unwrap_or_else(|| {
            panic!("retry-after-fsync-fail acknowledges lost data; the battery must catch it")
        });
        assert!(
            found.message.contains("poison"),
            "the catch is the fail-stop contract, got: {}",
            found.message
        );
    })
}

/// The control: with both toggles disarmed, the two hunt scenarios run
/// green — the planted build itself must not perturb the engine.
#[test]
fn hunt_scenarios_run_green_with_toggles_disarmed() {
    let _lock = TOGGLES.lock().unwrap_or_else(|e| e.into_inner());
    for spec in [
        zoo::boundary_flood(),
        zoo::hot_contention(),
        zoo::disk_fsync_poison(),
    ] {
        run_spec(&spec, 3).unwrap_or_else(|e| {
            panic!("{} must run green without planted toggles: {e}", spec.name)
        });
    }
}

/// Unknown toggle names are an error, not a silent no-op — a repro
/// file naming a bug this build does not know must fail loudly.
#[test]
fn unknown_planted_toggle_is_rejected() {
    let err = apply_planted(&["no_such_bug".to_string()], true).unwrap_err();
    assert!(err.contains("no_such_bug"), "error names the toggle: {err}");
}
