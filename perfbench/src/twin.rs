//! The serial twin: expected replies from `SessionStore::apply`.
//!
//! One never-evicting store replays each slot's script serially, one
//! slot after another. Sessions are independent machines, so the wire
//! replies depend only on each session's own request stream and this
//! order gives the exact replies the server must produce, whatever the
//! interleaving and eviction schedule. The twin also yields each
//! request's virtual-cycle cost, so the served multiset's `(metrics)`
//! snapshot can be rebuilt for any run length.

use crate::workload::{Slot, Step};
use small_core::LptStats;
use small_serve::{Reply, ReqKind, Request, ServeConfig, SessionStore};
use std::time::Instant;

/// What one step must produce.
pub struct Expect {
    /// Canonical reply text (for `Open`, the twin's own id).
    pub reply: String,
    /// Telemetry kind the server records the request under.
    pub kind: ReqKind,
    /// Virtual cycles the server records for it.
    pub cycles: u64,
    /// The twin's session id for this step.
    pub twin_id: u64,
}

/// The twin's output for a whole plan.
pub struct Twin {
    /// `steps[client][slot][step]`.
    pub steps: Vec<Vec<Vec<Expect>>>,
    /// The LP ledger of every session life, read just before its close.
    pub lives: Vec<LptStats>,
    /// Plan defects: an `(err lp …)` reply or a close that leaves
    /// entries behind. Each one fails the run.
    pub problems: Vec<String>,
    /// Kind and cycles of a bare `(open)` and of closing it unused.
    pub bare_open: [(ReqKind, u64); 2],
}

/// The request a step sends on session `id` (ignored by `Open`).
pub fn request_for(step: &Step, id: u64) -> Request {
    match step {
        Step::Open => Request::Open { token: None },
        Step::Eval(src) => Request::Eval {
            id,
            seq: None,
            src: src.clone(),
        },
        Step::Close => Request::Close { id, seq: None },
    }
}

/// A never-evicting store with the server's session configuration.
pub fn store() -> SessionStore {
    SessionStore::new(ServeConfig {
        max_resident: usize::MAX,
        ..ServeConfig::default()
    })
}

/// Apply one request: reply, kind, cycles recorded, wall time.
pub fn apply(store: &mut SessionStore, req: &Request) -> (Reply, ReqKind, u64, u64) {
    let kind = ReqKind::of(req).expect("the plan only sends session requests");
    let before = store.telemetry().kind(kind).cycles.sum();
    let t0 = Instant::now();
    let reply = store.apply(req);
    let ns = t0.elapsed().as_nanos() as u64;
    let cycles = store.telemetry().kind(kind).cycles.sum() - before;
    (reply, kind, cycles, ns)
}

/// The LP ledger of session `id`.
pub fn ledger_of(store: &mut SessionStore, id: u64) -> LptStats {
    match store.apply(&Request::Ledger { id }) {
        Reply::Ledger(l) => *l,
        other => panic!("twin ledger read failed: {}", other.encode()),
    }
}

/// Replay every slot of every client. `probes` allows non-LP `(err …)`
/// replies.
pub fn run(plan: &[Vec<Slot>], probes: bool) -> Twin {
    let mut store = store();
    let mut lives = Vec::new();
    let mut problems = Vec::new();
    let mut steps = Vec::new();
    for (c, slots) in plan.iter().enumerate() {
        let mut per_slot = Vec::new();
        for (r, slot) in slots.iter().enumerate() {
            let mut id = 0;
            let mut out = Vec::with_capacity(slot.script.len());
            for (k, step) in slot.script.iter().enumerate() {
                if *step == Step::Close {
                    lives.push(ledger_of(&mut store, id));
                }
                // Decode the wire text, exactly as a shard does.
                let text = request_for(step, id).encode();
                let req = Request::decode(&text).expect("generated requests decode");
                let (reply, kind, cycles, _) = apply(&mut store, &req);
                if let Reply::Opened { id: fresh } = reply {
                    id = fresh;
                }
                let reply = reply.encode();
                let bad_close = *step == Step::Close && reply != "(ok closed 0)";
                let bad_err = reply.starts_with(if probes { "(err lp" } else { "(err" });
                if bad_err || bad_close {
                    problems.push(format!("client {c} slot {r} step {k}: {reply}"));
                }
                out.push(Expect {
                    reply,
                    kind,
                    cycles,
                    twin_id: id,
                });
            }
            per_slot.push(out);
        }
        steps.push(per_slot);
    }
    let (opened, open_kind, open_cycles, _) = apply(&mut store, &Request::Open { token: None });
    let Reply::Opened { id } = opened else {
        panic!("twin open failed: {}", opened.encode())
    };
    let (_, close_kind, close_cycles, _) = apply(&mut store, &Request::Close { id, seq: None });
    Twin {
        steps,
        lives,
        problems,
        bare_open: [(open_kind, open_cycles), (close_kind, close_cycles)],
    }
}
