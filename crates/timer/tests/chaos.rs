//! Chaos suite: TIMER under injected round panics, deadlines and
//! cancellation.
//!
//! The central claims under test:
//!
//! * a panicking hierarchy round surfaces as `TieError::WorkerPanicked`,
//!   naming the round and keeping the panic payload, instead of tearing the
//!   process down,
//! * deadline expiry and cancellation return a fully committed labeling
//!   with the right `StopReason`,
//! * injected delays never change the trajectory.

use std::sync::Once;
use std::time::Duration;

use tie_fault::{FaultHandle, FaultPlan, INJECTED_PANIC_PREFIX};
use tie_graph::generators;
use tie_mapping::Mapping;
use tie_partition::{partition, PartitionConfig};
use tie_timer::{CancelToken, StopReason, TieError, Timer, TimerConfig, TimerResult};
use tie_topology::{recognize_partial_cube, PartialCubeLabeling, Topology};

const NH: usize = 8;
const SEED: u64 = 7;

/// Injected panics are expected here; keep the default hook from spraying
/// backtraces for them while leaving real panics loud.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                default(info);
            }
        }));
    });
}

fn fixture() -> (tie_graph::Graph, PartialCubeLabeling, Mapping, Topology) {
    let ga = generators::barabasi_albert(600, 3, SEED);
    let topo = Topology::grid2d(8, 8);
    let pcube = recognize_partial_cube(&topo.graph).unwrap();
    let part = partition(&ga, &PartitionConfig::new(topo.num_pes(), SEED));
    let mapping = Mapping::from_partition(
        &part,
        &generators::random_permutation(topo.num_pes(), SEED),
        topo.num_pes(),
    );
    (ga, pcube, mapping, topo)
}

fn assert_same_trajectory(a: &TimerResult, b: &TimerResult, context: &str) {
    assert_eq!(a.labeling.labels, b.labeling.labels, "{context}: labels");
    assert_eq!(a.mapping, b.mapping, "{context}: mapping");
    assert_eq!(a.final_coco, b.final_coco, "{context}: final_coco");
    assert_eq!(
        a.final_coco_plus, b.final_coco_plus,
        "{context}: final_coco_plus"
    );
    assert_eq!(
        a.hierarchies_accepted, b.hierarchies_accepted,
        "{context}: hierarchies_accepted"
    );
    assert_eq!(a.total_swaps, b.total_swaps, "{context}: total_swaps");
}

/// Asserts that `result` failed at `expected_round` with the injected
/// panic's payload kept.
fn assert_panicked_at(result: Result<TimerResult, TieError>, expected_round: usize, context: &str) {
    match result {
        Err(TieError::WorkerPanicked { round, message }) => {
            assert_eq!(round, expected_round, "{context}");
            assert!(
                message.contains(INJECTED_PANIC_PREFIX),
                "{context}: panic payload should be preserved: {message}"
            );
        }
        other => panic!("{context}: expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn panic_at_a_round_returns_worker_panicked_with_the_payload() {
    silence_injected_panics();
    let (ga, pcube, mapping, _) = fixture();
    for round in [0, 3, NH - 1] {
        let faults = FaultHandle::new(FaultPlan::new().with_panic_at_round(round));
        let cfg = TimerConfig::new(NH, SEED).with_faults(faults.clone());
        let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping);
        assert_panicked_at(result, round, &format!("panic@{round}"));
        assert_eq!(faults.panics_fired(), 1);
    }
    // Several armed rounds: the run ends at the first one, and the later
    // one never fires.
    let faults = FaultHandle::new(
        FaultPlan::new()
            .with_panic_at_round(5)
            .with_panic_at_round(2),
    );
    let cfg = TimerConfig::new(NH, SEED).with_faults(faults.clone());
    let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping);
    assert_panicked_at(result, 2, "panic@5,panic@2");
    assert_eq!(faults.panics_fired(), 1, "the run stops at the first panic");
}

#[test]
fn persistent_panic_is_reported_as_worker_panicked() {
    silence_injected_panics();
    let (ga, pcube, mapping, _) = fixture();
    // Armed twice at the same round: each of two runs sharing the handle
    // fails there, and a third run, with the fault used up, completes.
    let faults = FaultHandle::new(FaultPlan::new().with_panic_at_round_times(2, 2));
    let cfg = TimerConfig::new(NH, SEED).with_faults(faults);
    for attempt in 0..2 {
        let result = Timer::new(cfg.clone()).enhance(&ga, &pcube, &mapping);
        assert_panicked_at(result, 2, &format!("attempt {attempt}"));
    }
    let clean = Timer::new(TimerConfig::new(NH, SEED))
        .enhance(&ga, &pcube, &mapping)
        .unwrap();
    let third = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
    assert_same_trajectory(&third, &clean, "after the fault is used up");
}

#[test]
fn expired_deadline_returns_best_so_far() {
    let (ga, pcube, mapping, topo) = fixture();
    // A deadline far shorter than the run: the driver stops at the first
    // round boundary it checks. 1 ns is over before the loop starts, so the
    // result is the initial labeling, fully committed and consistent.
    let cfg = TimerConfig::new(NH, SEED).with_deadline(Duration::from_nanos(1));
    let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
    assert_eq!(result.stop_reason, StopReason::DeadlineExceeded);
    assert!(result.hierarchies_accepted <= NH);
    assert!(
        result.final_coco <= result.initial_coco,
        "best-so-far must never be worse than the initial mapping"
    );
    // The returned labeling is a consistent snapshot: it still encodes a
    // valid mapping onto the same topology.
    assert_eq!(result.mapping.num_tasks(), ga.num_vertices());
    assert_eq!(result.mapping.num_pes(), topo.num_pes());
}

#[test]
fn cancel_token_stops_the_run() {
    let (ga, pcube, mapping, _) = fixture();
    let token = CancelToken::new();
    token.cancel();
    let cfg = TimerConfig::new(NH, SEED).with_cancel_token(token);
    let result = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
    assert_eq!(result.stop_reason, StopReason::Cancelled);
    assert_eq!(result.hierarchies_accepted, 0);
    assert_eq!(result.final_coco, result.initial_coco);
}

#[test]
fn zero_deadline_is_rejected_up_front() {
    let (ga, pcube, mapping, _) = fixture();
    let err = Timer::new(TimerConfig::new(NH, SEED).with_deadline(Duration::ZERO))
        .enhance(&ga, &pcube, &mapping)
        .unwrap_err();
    assert!(matches!(err, TieError::InvalidInput(_)), "{err:?}");
}

#[test]
fn phase_delays_do_not_change_the_trajectory() {
    let (ga, pcube, mapping, _) = fixture();
    let cfg = TimerConfig::new(NH, SEED);
    let clean = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
    let faults = FaultHandle::new(
        FaultPlan::new()
            .with_delay("hierarchy_build", Duration::from_micros(200))
            .with_delay("delta_scan", Duration::from_micros(200)),
    );
    let cfg = TimerConfig::new(NH, SEED).with_faults(faults);
    let delayed = Timer::new(cfg).enhance(&ga, &pcube, &mapping).unwrap();
    assert_same_trajectory(&delayed, &clean, "delays");
}
