//! Session isolation under concurrency machinery: K sessions fed a
//! randomly interleaved request schedule through a [`SessionStore`]
//! with a small residency cap (forcing LRU eviction and resume churn
//! between requests) must each produce exactly the replies, ledger,
//! and digest of the same script run serially on a fresh, never-
//! evicted [`Session`]. This is the isolation property the serving
//! layer promises: neither interleaving nor suspend/resume is
//! observable from inside a session.

use proptest::prelude::*;
use small_serve::session::{ServeConfig, Session};
use small_serve::{Reply, Request, SessionOp, SessionStore};

const K: usize = 5;
const TEMPLATES: u8 = 7;

fn cfg(max_resident: usize) -> ServeConfig {
    ServeConfig {
        heap_cells: 1 << 13,
        table_size: 256,
        step_budget: 200_000,
        max_resident,
    }
}

/// The `j`-th request of session `k` for template pick `t`. Every
/// session starts with `(setq acc nil)`, so `acc` is always bound.
fn request(k: usize, j: usize, t: u8) -> String {
    let a = (k * 31 + j * 7) % 50;
    match t % TEMPLATES {
        0 => format!("(add {a} (times {k} {j}))"),
        1 => format!("(setq acc (cons {a} acc))"),
        // Mutation on a fresh cell over the session's accumulator.
        2 => format!(
            "(prog (x) (setq x (cons {a} acc)) (rplaca x {k}) (rplacd x acc) (return (car x)))"
        ),
        3 => "(car 5)".to_string(),
        4 => "(setq acc (cdr acc))".to_string(),
        5 => format!("(setq g{k} {a})"),
        _ => format!("(cond ((null acc) {a}) (t (car acc)))"),
    }
}

fn open(store: &mut SessionStore) -> u64 {
    match store.apply(&Request::Open { token: None }) {
        Reply::Opened { id } => id,
        other => panic!("open failed: {}", other.encode()),
    }
}

fn eval(store: &mut SessionStore, id: u64, src: &str) -> Reply {
    let src = src.to_string();
    store.apply(&Request::Eval { id, seq: None, src })
}

fn read(store: &mut SessionStore, id: u64, op: SessionOp) -> Reply {
    store.execute(id, &op).0
}

fn close(store: &mut SessionStore, id: u64) -> Reply {
    store.apply(&Request::Close { id, seq: None })
}

/// Expand an interleaving into per-session scripts (each prefixed with
/// the accumulator seed request).
fn scripts(schedule: &[(usize, u8)]) -> Vec<Vec<String>> {
    let mut per: Vec<Vec<String>> = (0..K).map(|_| vec!["(setq acc nil)".to_string()]).collect();
    for &(k, t) in schedule {
        let j = per[k].len();
        per[k].push(request(k, j, t));
    }
    per
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_sessions_match_serial_runs(
        schedule in prop::collection::vec((0..K, 0..TEMPLATES), 8..48)
    ) {
        // Concurrent-shaped run: one store, residency cap of 2, the
        // interleaved schedule. Sessions are evicted and resumed as the
        // schedule touches them.
        let mut store = SessionStore::new(cfg(2));
        let ids: Vec<u64> = (0..K).map(|_| open(&mut store)).collect();
        let per = scripts(&schedule);
        let mut managed: Vec<Vec<Reply>> = (0..K).map(|_| Vec::new()).collect();
        let mut cursor = [0usize; K];
        // Replay the schedule: seed request first touch, then in order.
        let mut order: Vec<usize> = Vec::new();
        for k in 0..K {
            order.push(k); // every session runs its seed request
        }
        for &(k, _) in &schedule {
            order.push(k);
        }
        for k in order {
            let j = cursor[k];
            if j < per[k].len() {
                managed[k].push(eval(&mut store, ids[k], &per[k][j]));
                cursor[k] = j + 1;
            }
        }
        let ledgers: Vec<Reply> = ids.iter().map(|&id| read(&mut store, id, SessionOp::Ledger)).collect();
        let digests: Vec<Reply> = ids.iter().map(|&id| read(&mut store, id, SessionOp::Digest)).collect();
        let (evictions, resumes) = store.eviction_counters();
        prop_assert!(evictions > 0, "residency cap 2 with {} sessions must evict", K);
        prop_assert!(resumes > 0, "touching an evicted session must resume it");

        // Serial twin: fresh sessions, never evicted, same scripts.
        for k in 0..K {
            let mut s = Session::new(ids[k], &cfg(usize::MAX));
            let serial: Vec<Reply> = per[k].iter().map(|r| s.eval(r)).collect();
            prop_assert_eq!(&managed[k], &serial, "replies diverged for session {}", k);
            prop_assert_eq!(&ledgers[k], &s.ledger_reply(), "ledger diverged for session {}", k);
            prop_assert_eq!(&digests[k], &s.digest_reply(), "digest diverged for session {}", k);
            let (occupancy, _) = s.close();
            prop_assert_eq!(occupancy, 0, "serial session {} leaked", k);
        }
        for id in ids {
            prop_assert_eq!(close(&mut store, id), Reply::Closed { occupancy: 0 });
        }
    }
}

/// Deterministic round-trip: with a residency cap of 1, two sessions
/// alternating requests are suspended and resumed on every touch; the
/// evicted-every-time run must match a never-evicted store exactly,
/// including ledgers (stats-neutral suspend) and digests.
#[test]
fn eviction_round_trip_is_invisible() {
    let mut thrash = SessionStore::new(cfg(1));
    let mut roomy = SessionStore::new(cfg(usize::MAX));
    let a = [open(&mut thrash), open(&mut roomy)];
    let b = [open(&mut thrash), open(&mut roomy)];
    let script = [
        "(setq acc nil)",
        "(setq acc (cons 1 acc))",
        "(setq acc (cons 2 acc))",
        "(prog (x) (setq x (cons 9 acc)) (rplaca x 8) (return (car x)))",
        "(car acc)",
        "(car 5)",
        "(setq acc (cdr acc))",
        "(car acc)",
    ];
    for r in script {
        // Alternate sessions request-by-request: under cap 1 every
        // touch suspends the other session.
        assert_eq!(eval(&mut thrash, a[0], r), eval(&mut roomy, a[1], r));
        assert_eq!(eval(&mut thrash, b[0], r), eval(&mut roomy, b[1], r));
    }
    for op in [SessionOp::Ledger, SessionOp::Digest] {
        for (t, r) in [(a[0], a[1]), (b[0], b[1])] {
            assert_eq!(
                read(&mut thrash, t, op.clone()),
                read(&mut roomy, r, op.clone())
            );
        }
    }
    let (evictions, resumes) = thrash.eviction_counters();
    assert!(
        evictions >= script.len() as u64,
        "cap 1 must thrash: {evictions}"
    );
    assert!(
        resumes >= script.len() as u64,
        "cap 1 must resume: {resumes}"
    );
    let (roomy_ev, roomy_res) = roomy.eviction_counters();
    assert_eq!(
        (roomy_ev, roomy_res),
        (0, 0),
        "roomy store must never evict"
    );
    for id in [a[0], b[0]] {
        assert_eq!(close(&mut thrash, id), Reply::Closed { occupancy: 0 });
    }
    for id in [a[1], b[1]] {
        assert_eq!(close(&mut roomy, id), Reply::Closed { occupancy: 0 });
    }
}
