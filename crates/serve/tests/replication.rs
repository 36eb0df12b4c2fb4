//! WAL-shipping replication over real sockets: a replica-role client
//! pulls journal frames from a live primary into a warm [`Standby`],
//! and promotion yields a store whose observable state — ledgers,
//! digests, values, even the next session id — is byte-identical to
//! what the primary was serving.

use small_serve::server::{start, ServerParams};
use small_serve::session::ServeConfig;
use small_serve::{Client, Reply, Request, Role, Standby};

fn cfg() -> ServeConfig {
    ServeConfig {
        heap_cells: 1 << 13,
        table_size: 256,
        max_resident: 2,
        ..ServeConfig::default()
    }
}

fn primary() -> small_serve::ServerHandle {
    start(
        "127.0.0.1:0",
        cfg(),
        ServerParams {
            shards: 2,
            queue_cap: 64,
            max_conns_per_shard: 8,
            replicate: true,
            ..ServerParams::default()
        },
    )
    .expect("primary starts")
}

#[test]
fn promoted_standby_serves_the_primary_state() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    let a = c.open().unwrap();
    let b = c.open().unwrap();
    let script: [(u64, &str); 6] = [
        (a, "(setq acc (cons 1 (cons 2 nil)))"),
        (b, "(setq acc (cons 9 nil))"),
        (a, "(setq acc (cons 3 acc))"),
        (a, "(car 5)"), // errors are journaled and replayed too
        (b, "(car acc)"),
        (a, "(car acc)"),
    ];
    for &(id, src) in &script {
        c.request(&Request::Eval {
            id,
            seq: None,
            src: src.to_string(),
        })
        .unwrap();
    }
    // What the live primary says about each session.
    let live: Vec<String> = [a, b]
        .iter()
        .flat_map(|&id| {
            [
                c.request_text(&Request::Ledger { id }.encode()).unwrap(),
                c.request_text(&Request::Digest { id }.encode()).unwrap(),
            ]
        })
        .collect();

    // Ship the whole journal (ledger/digest reads are not journaled,
    // so the WAL holds exactly the opens and evals).
    let mut puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let mut standby = Standby::new(ServeConfig {
        max_resident: 1, // deliberately tighter than the primary
        ..cfg()
    });
    let target = handle.wal_next_lsn().expect("primary has a WAL");
    assert_eq!(target, 2 + script.len() as u64);
    puller.catch_up(&mut standby, target).unwrap();
    drop((c, puller));
    handle.shutdown();

    // The survivor answers exactly as the primary did...
    let mut promoted = standby.promote();
    let replayed: Vec<String> = [a, b]
        .iter()
        .flat_map(|&id| {
            [
                promoted.apply(&Request::Ledger { id }).encode(),
                promoted.apply(&Request::Digest { id }).encode(),
            ]
        })
        .collect();
    assert_eq!(replayed, live);
    // ...and keeps allocating ids where the primary left off.
    assert_eq!(
        promoted.apply(&Request::Open { token: None }),
        Reply::Opened { id: 2 }
    );
}

#[test]
fn incremental_and_bulk_catch_up_converge() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    let mut inc_puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let mut incremental = Standby::new(cfg());
    let id = c.open().unwrap();
    let target = handle.wal_next_lsn().unwrap();
    inc_puller.catch_up(&mut incremental, target).unwrap();
    for k in 0..12u64 {
        let src = if k == 0 {
            "(setq acc nil)".to_string()
        } else {
            format!("(setq acc (cons {k} acc))")
        };
        c.request(&Request::Eval { id, seq: None, src }).unwrap();
        // Pull after every single acknowledged request...
        let target = handle.wal_next_lsn().unwrap();
        inc_puller.catch_up(&mut incremental, target).unwrap();
    }
    // ...versus one bulk pull at the end.
    let mut bulk_puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let mut bulk = Standby::new(cfg());
    let target = handle.wal_next_lsn().unwrap();
    bulk_puller.catch_up(&mut bulk, target).unwrap();
    drop((c, inc_puller, bulk_puller));
    handle.shutdown();

    let mut a = incremental.promote();
    let mut b = bulk.promote();
    assert_eq!(
        a.apply(&Request::Digest { id }),
        b.apply(&Request::Digest { id })
    );
    assert_eq!(
        a.apply(&Request::Ledger { id }),
        b.apply(&Request::Ledger { id })
    );
}

#[test]
fn pull_is_gated_on_the_replica_role() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    assert_eq!(
        c.request_text(&Request::Pull { from: 0 }.encode()).unwrap(),
        "(err proto not-a-replica)",
        "a client-role connection must not read the journal"
    );
    // The same request on a replica-role connection works.
    let mut r = Client::connect(handle.addr(), Role::Replica).unwrap();
    let (next, bytes) = r.pull(0).unwrap();
    assert_eq!((next, bytes.len()), (0, 0), "empty journal, clean pull");
    handle.shutdown();
}

/// Replay of random session streams: a primary store journals exactly
/// what [`SessionStore::execute`] returns, and a standby with a
/// different residency cap replays that journal.
mod replay {
    use proptest::prelude::*;
    use small_serve::repl::{reply_digest, WalOp};
    use small_serve::session::{ServeConfig, DEDUP_WINDOW};
    use small_serve::{SessionOp, SessionStore, Standby, Wal};
    use std::collections::{HashMap, HashSet};

    const PROGRAMS: [&str; 7] = [
        "(setq acc nil)",
        "(setq acc (cons 1 acc))",
        "(car acc)",
        "(car 5)",
        "(add 2 3)",
        "(setq acc (cdr acc))",
        "(prog (x) (setq x (cons 9 acc)) (rplaca x 8) (return (car x)))",
    ];

    /// How an eval or close picks its seq against the session's cursor.
    #[derive(Debug, Clone, Copy)]
    enum Seq {
        None,
        Next,
        /// `k + 1` behind the cursor: a retry inside the dedup window,
        /// or a stale seq once `k` reaches it.
        Back(u64),
        /// Past the cursor: a gap.
        Ahead(u64),
    }

    #[derive(Debug, Clone)]
    enum Step {
        Open(Option<u64>),
        Eval(u64, Seq, usize),
        /// `n` sequenced evals at the cursor, so retries can fall out
        /// of the dedup window.
        Burst(u64, u64),
        Read(u64, bool),
        Close(u64, Seq),
    }

    fn seq() -> impl Strategy<Value = Seq> {
        (0u8..8, 0..DEDUP_WINDOW as u64 + 8).prop_map(|(kind, k)| match kind {
            0 | 1 => Seq::None,
            2..=4 => Seq::Next,
            5 | 6 => Seq::Back(k),
            _ => Seq::Ahead(k % 3 + 1),
        })
    }

    fn step() -> impl Strategy<Value = Step> {
        // Ids 0..5 include sessions never opened or already closed;
        // tokens 0..3 repeat.
        let parts = (
            0u8..15,
            0u64..5,
            seq(),
            0..PROGRAMS.len(),
            prop::option::of(0u64..3),
            any::<bool>(),
        );
        parts.prop_map(|(kind, id, seq, p, token, ledger)| match kind {
            0..=2 => Step::Open(token),
            3..=10 => Step::Eval(id, seq, p),
            11 => Step::Burst(id, DEDUP_WINDOW as u64 + p as u64 % 4),
            12 => Step::Read(id, ledger),
            _ => Step::Close(id, seq),
        })
    }

    fn cfg(max_resident: usize) -> ServeConfig {
        ServeConfig {
            heap_cells: 1 << 12,
            table_size: 256,
            max_resident,
            ..ServeConfig::default()
        }
    }

    /// Which ops take effect, tracked independently of the store: the
    /// live sessions with their seq cursors, and every token seen (at
    /// most three tokenized sessions ever open, so no token leaves the
    /// retention ring).
    #[derive(Default)]
    struct Model {
        cursors: HashMap<u64, u64>,
        tokens: HashSet<u64>,
    }

    impl Model {
        fn seq(&self, id: u64, pick: Seq) -> Option<u64> {
            let cursor = self.cursors.get(&id).copied().unwrap_or(0);
            match pick {
                Seq::None => None,
                Seq::Next => Some(cursor),
                Seq::Back(k) => Some(cursor.saturating_sub(k + 1)),
                Seq::Ahead(k) => Some(cursor + k),
            }
        }

        /// Whether `op` on `id` takes effect (and so is journaled),
        /// updating the model when it does.
        fn takes_effect(&mut self, id: u64, op: &SessionOp) -> bool {
            let at_cursor = |s: &Option<u64>| match s {
                None => true,
                Some(s) => self.cursors.get(&id) == Some(s),
            };
            let live = self.cursors.contains_key(&id);
            match op {
                SessionOp::Write(WalOp::Open { token }) => {
                    let applies = token.is_none_or(|t| self.tokens.insert(t));
                    if applies {
                        self.cursors.insert(id, 0);
                    }
                    applies
                }
                SessionOp::Write(WalOp::Eval { seq, .. }) => {
                    // Seq-less mutations are journaled even when the
                    // session is unknown.
                    let applies = seq.is_none() || (live && at_cursor(seq));
                    if applies && seq.is_some() {
                        *self.cursors.get_mut(&id).expect("live") += 1;
                    }
                    applies
                }
                SessionOp::Write(WalOp::Close { seq }) => {
                    let applies = seq.is_none() || (live && at_cursor(seq));
                    if applies {
                        self.cursors.remove(&id);
                    }
                    applies
                }
                SessionOp::Ledger | SessionOp::Digest => false,
            }
        }
    }

    /// The ops a step sends; an open targets the store's next id.
    fn ops(step: &Step, model: &Model, next_id: u64) -> Vec<(u64, SessionOp)> {
        let eval = |seq, p: usize| {
            let src = PROGRAMS[p].to_string();
            SessionOp::Write(WalOp::Eval { seq, src })
        };
        match *step {
            Step::Open(token) => vec![(next_id, WalOp::Open { token }.into())],
            Step::Eval(id, pick, p) => vec![(id, eval(model.seq(id, pick), p))],
            Step::Burst(id, n) => {
                let at = model.seq(id, Seq::Next).expect("a cursor");
                (at..at + n).map(|s| (id, eval(Some(s), 4))).collect()
            }
            Step::Read(id, true) => vec![(id, SessionOp::Ledger)],
            Step::Read(id, false) => vec![(id, SessionOp::Digest)],
            Step::Close(id, pick) => {
                let seq = model.seq(id, pick);
                vec![(id, WalOp::Close { seq }.into())]
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn standby_replays_exactly_what_the_primary_journaled(
            steps in prop::collection::vec(step(), 1..64),
        ) {
            let mut primary = SessionStore::new(cfg(2));
            let mut wal = Wal::new();
            let mut model = Model::default();
            for step in &steps {
                // A tokenized open whose token is held answers with
                // the original id; which candidate id it was offered
                // does not matter.
                let batch = ops(step, &model, primary.next_session_id());
                for (id, op) in batch {
                    let (reply, journal) = primary.execute(id, &op);
                    let applies = model.takes_effect(id, &op);
                    prop_assert_eq!(
                        journal.is_some(), applies,
                        "{:?} on {} answered {}", op, id, reply.encode()
                    );
                    if let Some(w) = journal {
                        prop_assert_eq!(Some(w), op.write());
                        wal.append(id, w.clone(), reply_digest(&reply));
                    }
                }
            }

            // Replay one record per pull: a different reply digest at
            // any LSN fails the apply.
            let mut standby = Standby::new(cfg(1));
            while standby.next_lsn() < wal.next_lsn() {
                let lsn = standby.next_lsn();
                let (frame, next) = wal.frames_from(lsn, 0);
                prop_assert_eq!(next, lsn + 1);
                prop_assert_eq!(standby.apply(&frame), Ok(1), "lsn {}", lsn);
            }

            let mut promoted = standby.promote();
            prop_assert_eq!(promoted.session_ids(), primary.session_ids());
            for id in primary.session_ids() {
                for read in [SessionOp::Ledger, SessionOp::Digest] {
                    prop_assert_eq!(
                        promoted.execute(id, &read).0,
                        primary.execute(id, &read).0,
                        "{:?} of session {}", read, id
                    );
                }
            }
            prop_assert_eq!(promoted.aggregate_counts(), primary.aggregate_counts());
            prop_assert_eq!(promoted.next_session_id(), primary.next_session_id());
        }
    }
}
