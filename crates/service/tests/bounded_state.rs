//! Long-lived decision state stays bounded.
//!
//! A daemon session lives as long as its client, so nothing it retains may
//! grow with the number of windows streamed through it. This test streams
//! 100,000 windows of a signal that flaps between a scalable and a
//! contended phase through a [`DynamicSmtController`] and through a
//! [`Session`] that also re-tags its threads on every window, and counts
//! live heap bytes with a wrapping global allocator: after the first
//! thousand windows the count must stop moving.
//!
//! The binary holds this one test so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use smt_sched::{ControllerConfig, DynamicSmtController};
use smt_service::{Session, SessionSpec};
use smt_sim::{MachineConfig, Simulation, SmtLevel, WindowMeasurement};
use smt_workloads::{catalog, SyntheticWorkload};
use smtsm::{LevelSelector, MetricSpec, ThresholdPredictor};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// counts the bytes handed out and returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WINDOWS: usize = 100_000;
const WARM: usize = 1_000;
/// Windows per phase of the flapping signal.
const FLAP: usize = 37;
/// Allowed drift in live heap bytes between the warm point and the end.
const SLACK: isize = 4 << 10;

/// Pre-measured windows per (phase, level): index 0 scalable, 1 contended.
struct Pool {
    windows: [Vec<(SmtLevel, Vec<WindowMeasurement>)>; 2],
}

impl Pool {
    fn new(window_cycles: u64) -> Pool {
        let specs = [
            catalog::ep().scaled(0.05),
            catalog::specjbb_contention().scaled(0.05),
        ];
        let windows = specs.map(|spec| {
            [SmtLevel::Smt4, SmtLevel::Smt2, SmtLevel::Smt1]
                .iter()
                .map(|&level| {
                    let mut sim = Simulation::new(
                        MachineConfig::power7(1),
                        level,
                        SyntheticWorkload::new(spec.clone()),
                    );
                    let ws = (0..6).map(|_| sim.measure_window(window_cycles)).collect();
                    (level, ws)
                })
                .collect()
        });
        Pool { windows }
    }

    /// The `i`-th window of the flapping signal, measured at `level`.
    fn window(&self, i: usize, level: SmtLevel) -> &WindowMeasurement {
        let (_, ws) = self.windows[(i / FLAP) % 2]
            .iter()
            .find(|(l, _)| *l == level)
            .expect("pool covers every level");
        &ws[i % ws.len()]
    }
}

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

#[test]
fn controller_and_session_state_do_not_grow_with_the_window_count() {
    let spec = SessionSpec::power7();
    let pool = Pool::new(spec.window_cycles);

    // The controller, closed loop: each window is measured at the level
    // the controller asked for.
    let selector = LevelSelector::three_level(
        ThresholdPredictor::fixed(spec.threshold),
        ThresholdPredictor::fixed(spec.mid),
    );
    let mut ctl = DynamicSmtController::new(
        selector,
        MetricSpec::power7(),
        ControllerConfig {
            window_cycles: spec.window_cycles,
            ..ControllerConfig::default()
        },
    );
    let mut level = ctl.top_level();
    let mut switches = 0usize;
    let mut base = 0;
    for i in 0..WINDOWS {
        if i == WARM {
            base = live();
        }
        let d = ctl.observe(pool.window(i, level));
        level = d.level;
        switches += usize::from(d.switched);
    }
    let grown = live() - base;
    assert!(
        switches > WINDOWS / 100,
        "the signal must flap the controller, got {switches} switches"
    );
    assert!(
        grown.abs() <= SLACK,
        "controller heap moved by {grown} bytes over {} windows",
        WINDOWS - WARM
    );

    // The session: the same stream through `ingest`, plus every window
    // re-tagged to one of six threads.
    let mut session = Session::new(1, &spec).expect("session");
    let mut level = session.top();
    for i in 0..WINDOWS {
        if i == WARM {
            base = live();
        }
        let w = pool.window(i, level);
        level = session.ingest(std::slice::from_ref(w)).level;
        session.ingest_tagged((i % 6) as u32, std::slice::from_ref(w));
    }
    let grown = live() - base;
    assert!(
        grown.abs() <= SLACK,
        "session heap moved by {grown} bytes over {} windows",
        WINDOWS - WARM
    );
    assert_eq!(session.windows(), 2 * WINDOWS as u64);
    let placed = session.place(&[]).expect("place over tagged threads");
    assert_eq!(placed.windows, WINDOWS as u64);
}
