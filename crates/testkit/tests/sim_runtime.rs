//! The virtual scheduler's own contract: exact virtual time, the
//! eventcount protocol, deterministic scheduling, deadlock detection.

use deltx_engine::Runtime;
use deltx_testkit::VirtualRuntime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn virtual_sleep_advances_the_clock_exactly() {
    VirtualRuntime::run(1, |rt| {
        let t0 = rt.now();
        rt.sleep(Duration::from_millis(5));
        assert_eq!(rt.now() - t0, Duration::from_millis(5));
        // Idle time is free: a long sleep costs no wall clock.
        rt.sleep(Duration::from_secs(3600));
        assert_eq!(
            rt.now() - t0,
            Duration::from_secs(3600) + Duration::from_millis(5)
        );
    });
}

#[test]
fn eventcount_handoff_between_tasks() {
    VirtualRuntime::run(2, |rt| {
        let ev = rt.event();
        let flag = Arc::new(AtomicBool::new(false));
        let (ev2, flag2) = (Arc::clone(&ev), Arc::clone(&flag));
        let h = rt.spawn(
            "setter",
            Box::new(move || {
                flag2.store(true, Ordering::SeqCst);
                ev2.notify();
            }),
        );
        loop {
            let key = ev.prepare();
            if flag.load(Ordering::SeqCst) {
                break;
            }
            ev.wait(key);
        }
        h.join();
    });
}

#[test]
fn same_seed_same_schedule_different_seed_different_schedule() {
    fn trace(seed: u64) -> (Vec<usize>, u64) {
        VirtualRuntime::run(seed, |rt| {
            let order = Arc::new(Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..4)
                .map(|tid| {
                    let rt2 = Arc::clone(rt);
                    let order = Arc::clone(&order);
                    rt.spawn(
                        &format!("t{tid}"),
                        Box::new(move || {
                            for _ in 0..8 {
                                order.lock().unwrap().push(tid);
                                rt2.yield_now();
                            }
                        }),
                    )
                })
                .collect();
            for h in handles {
                h.join();
            }
            let v = order.lock().unwrap().clone();
            (v, rt.switches())
        })
    }
    assert_eq!(trace(7), trace(7), "same seed must replay the schedule");
    assert_ne!(
        trace(7).0,
        trace(8).0,
        "different seeds must pick different interleavings"
    );
}

#[test]
#[should_panic(expected = "deltx-sim")]
fn deadlock_is_detected_not_hung() {
    VirtualRuntime::run(9, |rt| {
        let ev = rt.event();
        let ev2 = Arc::clone(&ev);
        let h = rt.spawn(
            "stuck",
            Box::new(move || {
                // Waits on an event nobody will ever notify.
                let key = ev2.prepare();
                ev2.wait(key);
            }),
        );
        h.join();
    });
}

#[test]
#[should_panic(expected = "seed 11")]
fn task_panics_carry_the_seed() {
    VirtualRuntime::run(11, |rt| {
        let h = rt.spawn("boom", Box::new(|| panic!("workload bug")));
        h.join();
    });
}

/// The deadlock report is a diagnosis, not just a detection: it names
/// every parked task and the wait-for edge it is stuck on (which event,
/// created by whom), so a cycle reads straight off the message.
#[test]
fn deadlock_report_names_tasks_and_wait_for_edges() {
    use deltx_testkit::sim::{silence_expected_panics, SimConfig};

    let (out, _info) = silence_expected_panics(|| {
        VirtualRuntime::run_cfg(&SimConfig::random(21), |rt| {
            // Each task publishes its own event, then waits on the
            // other's: a two-cycle in the wait-for graph.
            let slot_a: Arc<Mutex<Option<Arc<dyn deltx_engine::RtEvent>>>> =
                Arc::new(Mutex::new(None));
            let slot_b: Arc<Mutex<Option<Arc<dyn deltx_engine::RtEvent>>>> =
                Arc::new(Mutex::new(None));
            let (rt_a, sa, sb) = (Arc::clone(rt), Arc::clone(&slot_a), Arc::clone(&slot_b));
            let ha = rt.spawn(
                "alice",
                Box::new(move || {
                    *sa.lock().unwrap() = Some(rt_a.event());
                    loop {
                        let other = sb.lock().unwrap().clone();
                        match other {
                            Some(ev) => {
                                let key = ev.prepare();
                                ev.wait(key);
                                break;
                            }
                            None => rt_a.yield_now(),
                        }
                    }
                }),
            );
            let (rt_b, sa, sb) = (Arc::clone(rt), Arc::clone(&slot_a), Arc::clone(&slot_b));
            let hb = rt.spawn(
                "bob",
                Box::new(move || {
                    *sb.lock().unwrap() = Some(rt_b.event());
                    loop {
                        let other = sa.lock().unwrap().clone();
                        match other {
                            Some(ev) => {
                                let key = ev.prepare();
                                ev.wait(key);
                                break;
                            }
                            None => rt_b.yield_now(),
                        }
                    }
                }),
            );
            ha.join();
            hb.join();
        })
    });

    let fail = out.expect_err("a wait-for cycle must be detected as deadlock");
    let report = format!("{}\n{}", fail.message, fail.task_panic().unwrap_or(""));
    assert!(
        report.contains("DEADLOCK"),
        "report must say DEADLOCK:\n{report}"
    );
    for task in ["alice", "bob", "root"] {
        assert!(
            report.contains(task),
            "report must name task `{task}`:\n{report}"
        );
    }
    assert!(
        report.contains("wait-for edges:"),
        "report must carry a wait-for section:\n{report}"
    );
    assert!(
        report.contains("created by"),
        "edges must name the event's creating task:\n{report}"
    );
    assert!(
        report.contains("`alice` waits on") && report.contains("`bob` waits on"),
        "both cycle members must appear as edge sources:\n{report}"
    );
    assert!(
        report.contains("DELTX_SEED=21"),
        "report must carry the replay seed:\n{report}"
    );
}
