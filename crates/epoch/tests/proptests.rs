//! Property-style tests for the longitudinal engine, driven by seeded
//! sweeps (no external crates, fully offline). Three families:
//!
//! 1. Fingerprint permutation invariance: shuffling set-like app fields
//!    (SDK names, domain lists) never changes the fingerprint, so
//!    `HashMap` iteration order or manifest field order can't dirty an
//!    app.
//! 2. Event/touched lockstep: applying any single [`EpochEvent`] flips
//!    the fingerprints of *exactly* the apps `touched_apps` predicted.
//! 3. Kill-and-resume: a run killed mid-epoch and resumed — even in a
//!    "fresh process" rebuilt from persisted state — renders its delta
//!    reports byte-identically to an uninterrupted run.

use pinning_crypto::SplitMix64;
use pinning_epoch::{
    all_fingerprints, EpochConfig, EpochEvent, EpochOutcome, EpochPlan, Evolution,
};
use pinning_store::config::WorldConfig;
use pinning_store::world::World;
use std::collections::BTreeSet;

#[test]
fn fingerprint_invariant_under_set_field_permutation() {
    for seed in [0xF1u64, 0xF2, 0xF3] {
        let mut world = World::generate(WorldConfig::tiny(seed));
        let before = all_fingerprints(&world);
        let mut rng = SplitMix64::new(seed).derive("permute");
        for app in &mut world.apps {
            rng.shuffle(&mut app.sdk_names);
            rng.shuffle(&mut app.first_party_domains);
            rng.shuffle(&mut app.associated_domains);
        }
        assert_eq!(
            before,
            all_fingerprints(&world),
            "seed {seed:#x}: set-like field order leaked into the fingerprint"
        );
    }
}

#[test]
fn every_event_flips_exactly_the_touched_apps() {
    for seed in [0xE1u64, 0xE2] {
        let config = EpochConfig::tiny(seed);
        let plan = EpochPlan::generate(&config);
        let mut world = World::generate(config.world.clone());
        for (k, events) in plan.epochs.iter().enumerate() {
            let epoch = k + 1;
            let base = SplitMix64::new(config.seed).derive(&format!("apply/{epoch}"));
            for (i, ev) in events.iter().enumerate() {
                let before = all_fingerprints(&world);
                let predicted = ev.touched_apps(&world);
                let mut sub = base.derive(&format!("ev/{i}"));
                ev.apply(&mut world, &mut sub);
                let after = all_fingerprints(&world);
                let flipped: BTreeSet<usize> = (0..before.len())
                    .filter(|&a| before[a] != after[a])
                    .collect();
                assert_eq!(
                    predicted,
                    flipped,
                    "seed {seed:#x} epoch {epoch} event {i} ({}) mispredicted its dirty set",
                    ev.label()
                );
            }
        }
    }
}

#[test]
fn time_advance_flips_exactly_the_touched_apps() {
    // Planned epochs advance two weeks, which often crosses no expiry at
    // all; longer steps exercise the per-app walk behind that fast path.
    let mut crossed = 0;
    for (seed, days) in [(0xA1u64, 14u64), (0xA2, 120), (0xA3, 400), (0xA4, 2000)] {
        let mut world = World::generate(WorldConfig::tiny(seed));
        let ev = EpochEvent::TimeAdvance { days };
        let before = all_fingerprints(&world);
        let predicted = ev.touched_apps(&world);
        ev.apply(&mut world, &mut SplitMix64::new(seed));
        let after = all_fingerprints(&world);
        let flipped: BTreeSet<usize> = (0..before.len())
            .filter(|&a| before[a] != after[a])
            .collect();
        assert_eq!(predicted, flipped, "seed {seed:#x}, {days} days");
        crossed += usize::from(!flipped.is_empty());
    }
    assert!(crossed > 0, "no step crossed an expiry boundary");
}

#[test]
fn plan_generation_is_deterministic() {
    let config = EpochConfig::tiny(0xDE);
    assert_eq!(EpochPlan::generate(&config), EpochPlan::generate(&config));
}

#[test]
fn kill_and_resume_yields_byte_identical_reports() {
    let seed = 0x4B5;
    // Reference: uninterrupted incremental run.
    let mut reference = Evolution::new(EpochConfig::tiny(seed), true);
    for _ in 0..reference.epochs_total() {
        reference.next_epoch().unwrap();
    }

    // Victim: same run, killed mid-way through epoch 1, state persisted
    // after epoch 0 — then a "fresh process" rebuilds the engine from
    // that state and finishes the epoch from the partial journal.
    let mut victim = Evolution::new(EpochConfig::tiny(seed), true);
    victim.next_epoch().unwrap();
    let state = victim.state_bytes();
    let journal = match victim.next_epoch_with_kill(2).unwrap() {
        EpochOutcome::Interrupted(journal) => journal,
        EpochOutcome::Completed => panic!("kill hook must interrupt the epoch"),
    };
    drop(victim); // the process "dies" here

    let mut revived = Evolution::from_state(EpochConfig::tiny(seed), &state).unwrap();
    assert_eq!(revived.completed(), 1);
    revived.resume_epoch(&journal).unwrap();
    while revived.completed() < revived.epochs_total() {
        revived.next_epoch().unwrap();
    }
    assert_eq!(
        revived.full_report(),
        reference.full_report(),
        "kill-and-resume diverged from the uninterrupted run"
    );
    assert_eq!(revived.fingerprints(), reference.fingerprints());
}
