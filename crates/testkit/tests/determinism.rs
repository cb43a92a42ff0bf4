//! The testkit's own acceptance bar: a `(spec, seed)` pair is a
//! *coordinate*. Running it twice must produce bit-identical reports —
//! same history fingerprint, same commit counts, same scheduling
//! decisions — and different seeds must actually explore different
//! interleavings.

use deltx_engine::run_seed;
use deltx_testkit::{run_spec, zoo};

/// The tentpole's self-test: same `DELTX_SEED` (or default) + same
/// spec ⇒ the two virtual runs agree on every field of the report,
/// fingerprint included.
#[test]
fn same_seed_replays_every_zoo_spec_bit_identically() {
    let seed = run_seed(42);
    for spec in zoo::all() {
        let a = run_spec(&spec, seed)
            .unwrap_or_else(|e| panic!("{} must run under seed {seed}: {e}", spec.name));
        let b = run_spec(&spec, seed).expect("second run of a supported spec");
        assert_eq!(
            a, b,
            "{} did not replay bit-identically under seed {seed}",
            spec.name
        );
    }
}

/// The zoo passes its oracle battery on a second seed pair (CI sweeps
/// a wider matrix through the `sim_zoo` binary).
#[test]
fn zoo_passes_oracles_on_more_seeds() {
    for spec in zoo::all() {
        for seed in [run_seed(5), 0xFEED] {
            run_spec(&spec, seed)
                .unwrap_or_else(|e| panic!("{} failed under seed {seed}: {e}", spec.name));
        }
    }
}

/// Seeds are not decorative: two different seeds drive the transfer
/// mix through different interleavings (deterministically — this can
/// never flake, only fail the same way every time).
#[test]
fn different_seeds_explore_different_interleavings() {
    let spec = zoo::transfer_mix();
    let a = run_spec(&spec, 1).expect("seed 1");
    let b = run_spec(&spec, 2).expect("seed 2");
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "seeds 1 and 2 produced the same history — the scheduler is ignoring its seed"
    );
}
