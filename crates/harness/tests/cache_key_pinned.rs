//! Cache-address stability, pinned by literal key values.
//!
//! The content address of a cell hashes the derived `Debug`
//! representations of all its configuration inputs, every field
//! spelled out, so *any* change to those representations — a new
//! field, a reordered field, a different float spelling — silently
//! orphans every existing cache entry and wire memo. The values below
//! pin three cells' addresses; a deliberate rotation re-pins them. The
//! tuned-gain and gain-schedule tests assert the converse: a config
//! that changes a field must rekey.

use dtm_core::{DtmConfig, FaultConfig, GainScheduleConfig, PolicySpec, SimConfig};
use dtm_harness::{cell_key, CellKey};
use dtm_workloads::{standard_workloads, TraceGenConfig};

#[test]
fn default_config_cells_keep_their_pinned_addresses() {
    let ws = standard_workloads();
    let tg = TraceGenConfig::default();
    let ideal = FaultConfig::ideal();

    let k = cell_key(
        &ws[0],
        PolicySpec::baseline(),
        &SimConfig::default(),
        &DtmConfig::default(),
        &ideal,
        &tg,
        "0.2.0",
    );
    assert_eq!(
        k,
        CellKey(202938442432549250901236756951541137682),
        "w0/baseline/default rekeyed — warm caches are orphaned"
    );

    let k = cell_key(
        &ws[6],
        PolicySpec::best(),
        &SimConfig::default(),
        &DtmConfig::default(),
        &ideal,
        &tg,
        "0.2.0",
    );
    assert_eq!(
        k,
        CellKey(228690269586966399460559360373023726325),
        "w6/best/default rekeyed — warm caches are orphaned"
    );

    let k = cell_key(
        &ws[0],
        PolicySpec::best(),
        &SimConfig::fast_test(),
        &DtmConfig {
            threshold: 100.0,
            ..DtmConfig::default()
        },
        &ideal,
        &tg,
        "0.2.0",
    );
    assert_eq!(
        k,
        CellKey(231160093543496766503433607624406739143),
        "w0/best/fast+threshold100 rekeyed — warm caches are orphaned"
    );
}

#[test]
fn adaptive_schedules_and_their_parameters_rekey_the_cell() {
    // Each adaptive schedule, and each parameterization of one, gets a
    // cell of its own.
    let k = |d: &DtmConfig| {
        cell_key(
            &standard_workloads()[0],
            PolicySpec::baseline(),
            &SimConfig::default(),
            d,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.2.0",
        )
    };
    let with = |schedule: GainScheduleConfig| DtmConfig {
        gain_schedule: schedule,
        ..DtmConfig::default()
    };

    let rao = k(&with(GainScheduleConfig::rao_default()));
    let selftune = k(&with(GainScheduleConfig::selftune_default()));
    let rao_tuned = k(&with(GainScheduleConfig::Rao {
        alpha: 0.5,
        tau_s: 2e-3,
    }));
    assert_ne!(rao, k(&DtmConfig::default()));
    assert_ne!(selftune, k(&DtmConfig::default()));
    assert_ne!(rao, selftune, "schedules must not collide");
    assert_ne!(rao, rao_tuned, "schedule parameters are part of the key");
}

#[test]
fn tuned_gains_rekey_the_cell() {
    let tuned = DtmConfig {
        pi_kp: 0.02,
        ..DtmConfig::default()
    };
    let k = |d: &DtmConfig| {
        cell_key(
            &standard_workloads()[0],
            PolicySpec::baseline(),
            &SimConfig::default(),
            d,
            &FaultConfig::ideal(),
            &TraceGenConfig::default(),
            "0.2.0",
        )
    };
    assert_ne!(
        k(&tuned),
        k(&DtmConfig::default()),
        "tuned gains must produce a distinct content address"
    );
}
