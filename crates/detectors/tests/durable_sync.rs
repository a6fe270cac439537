//! Durable restore→continue contract for Figure 7 in `HSS[∅]`: an
//! [`EngineSnapshot`] of the HΣ detector — [`HSigmaStepProcess`] on the
//! synchronous network, where lock-step step `s` publishes at tick
//! `2s + 2` and a crash at step `c` is a crash at tick `2c + 1` — taken
//! mid-run, pushed through the on-disk container (encode → atomic write
//! → verified read → decode) and restored into a fresh engine, continues
//! the run identically to an uninterrupted execution
//! (`homonym_sim::durable`).

use homonym_core::failure::FailureSchedule;
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::{Span, Time};
use homonym_core::wire;
use homonym_detectors::HSigmaStepProcess;
use homonym_sim::engine::{Engine, EngineArena, SimConfig};
use homonym_sim::network::NetworkModel;
use homonym_sim::{read_verified, write_atomic, EngineSnapshot};
use proptest::prelude::*;

/// Arbitrary schema tag for the test container (any value works as long
/// as write and read agree).
const TEST_SCHEMA: u32 = 99;

/// The tick a lock-step step's messages land at.
fn tick(step: u64) -> Time {
    Time::from_ticks(2 * step + 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Snapshot at a random step, round-trip through disk, restore,
    /// finish: histories and metrics must match the uninterrupted run
    /// exactly, for arbitrary seeds and one crash.
    #[test]
    fn sync_snapshot_survives_a_disk_round_trip(
        seed in 0u64..1_000,
        cut in 1u64..20,
        crash in 0usize..6,
        crash_at in 0u64..12,
    ) {
        let total = 20u64;
        let assign = IdentityAssignment::round_robin(6, 2);
        let sched = FailureSchedule::none(6).with_crash(crash, tick(crash_at));
        let config = SimConfig::new(assign, sched, NetworkModel::Synchronous).with_seed(seed);
        let mk = || Engine::new(config.clone(), |_, _| HSigmaStepProcess::new(Span::from_ticks(2)));

        let mut base = mk();
        base.run_until(tick(total));
        let expected_hist = base.histories().to_vec();
        let expected_metrics = base.metrics().clone();

        let mut e = mk();
        e.run_until(tick(cut));
        let snap = e.snapshot();

        let dir = std::env::temp_dir().join(format!(
            "hsnp-sync-rt-{}-{seed}-{cut}-{crash}-{crash_at}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sync.ck");
        write_atomic(&path, TEST_SCHEMA, &wire::to_bytes(&snap)).expect("atomic write");
        drop(snap);
        drop(e); // the "kill": nothing survives but the file

        let payload = read_verified(&path, TEST_SCHEMA)
            .expect("verified read")
            .expect("file written above");
        let restored: EngineSnapshot<HSigmaStepProcess> =
            wire::from_bytes(&payload).expect("decode");
        let mut resumed = Engine::resume_in(config.clone(), &restored, EngineArena::new());
        resumed.run_until(tick(total));

        prop_assert_eq!(resumed.histories(), expected_hist.as_slice());
        prop_assert_eq!(resumed.metrics(), &expected_metrics);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
