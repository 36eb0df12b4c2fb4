//! A threaded multi-node SMALL system (Figure 6.1).
//!
//! Where [`crate::node::MultiNode`] is a deterministic single-threaded
//! simulation (exact message accounting for the Chapter 6 claims), this
//! module runs each node as a real OS thread owning its own List
//! Processor, connected by `std::sync::mpsc` channels. Requests:
//!
//! * `Create` — intern a list on the node, registering a weight;
//! * `Fetch` — read the structure behind a reference (copy reply);
//! * `WeightUpdate` — a batch of combined weight decrements
//!   (Figure 6.6: senders flush whole combining queues as one message);
//! * `Occupancy` — introspection;
//! * `Shutdown`.
//!
//! Weighted references are `Send`, so they can be handed between client
//! threads freely — the Figure 6.5 point: no owner interaction on copy.

use crate::weights::{WeightTable, WeightedRef};
use small_core::{Id, ListProcessor, LpConfig, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_sexpr::SExpr;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

/// A sendable reference to a list object owned by some node.
#[derive(Debug)]
pub struct RemoteRef {
    /// Owner node.
    pub node: usize,
    wref: WeightedRef,
}

enum Request {
    Create {
        expr: SExpr,
        reply: SyncSender<RemoteRef>,
    },
    Fetch {
        obj: u64,
        reply: SyncSender<SExpr>,
    },
    WeightUpdate {
        updates: Vec<(u64, u64)>,
    },
    Occupancy {
        reply: SyncSender<usize>,
    },
    Shutdown,
}

struct NodeState {
    index: usize,
    lp: ListProcessor<TwoPointerController>,
    weights: WeightTable,
}

impl NodeState {
    fn serve(mut self, rx: Receiver<Request>) {
        while let Ok(req) = rx.recv() {
            match req {
                Request::Create { expr, reply } => {
                    let v = self
                        .lp
                        .readlist(None, &expr)
                        .expect("node heap/LPT exhausted");
                    let id = v.obj().expect("create of an atom");
                    let wref = self.weights.create(u64::from(id));
                    let _ = reply.send(RemoteRef {
                        node: self.index,
                        wref,
                    });
                }
                Request::Fetch { obj, reply } => {
                    let e = self
                        .lp
                        .writelist(LpValue::Obj(obj as Id))
                        .expect("fetch of live object");
                    let _ = reply.send(e);
                }
                Request::WeightUpdate { updates } => {
                    for (obj, weight) in updates {
                        self.weights.decrement(obj, weight);
                        if !self.weights.alive(obj) {
                            self.lp.unroot(LpValue::Obj(obj as Id), RootKind::Binding);
                            self.lp.drain_unroots();
                        }
                    }
                }
                Request::Occupancy { reply } => {
                    let _ = reply.send(self.lp.occupancy());
                }
                Request::Shutdown => break,
            }
        }
    }
}

/// Handle to a running threaded node system.
pub struct ParallelSystem {
    senders: Vec<Sender<Request>>,
    handles: Vec<JoinHandle<()>>,
}

impl ParallelSystem {
    /// Spawn `n` nodes, each with its own LP of `table_size` entries.
    pub fn spawn(n: usize, table_size: usize) -> ParallelSystem {
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for index in 0..n {
            let (tx, rx) = channel();
            let state = NodeState {
                index,
                lp: ListProcessor::new(
                    TwoPointerController::new(1 << 16, 64),
                    LpConfig {
                        table_size,
                        ..LpConfig::default()
                    },
                ),
                weights: WeightTable::new(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("small-node-{index}"))
                    .spawn(move || state.serve(rx))
                    .expect("spawn node"),
            );
            senders.push(tx);
        }
        ParallelSystem { senders, handles }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Create a list object on `node`; blocks for the reference.
    pub fn create(&self, node: usize, expr: SExpr) -> RemoteRef {
        let (reply, rx) = sync_channel(1);
        self.senders[node]
            .send(Request::Create { expr, reply })
            .expect("node alive");
        rx.recv().expect("node replies")
    }

    /// Fetch the structure behind a reference (one request/reply).
    pub fn fetch(&self, r: &RemoteRef) -> SExpr {
        let (reply, rx) = sync_channel(1);
        self.senders[r.node]
            .send(Request::Fetch {
                obj: r.wref.obj,
                reply,
            })
            .expect("node alive");
        rx.recv().expect("node replies")
    }

    /// Clone a reference for another consumer — local weight split, no
    /// owner interaction (Figure 6.5). Panics if the reference's weight
    /// is exhausted (clients with heavy fan-out should request fresh
    /// references instead; the deterministic [`crate::node::MultiNode`]
    /// models the replenish protocol).
    pub fn copy_ref(&self, r: &mut RemoteRef) -> RemoteRef {
        assert!(r.wref.weight > 1, "reference weight exhausted");
        let half = r.wref.weight / 2;
        r.wref.weight -= half;
        RemoteRef {
            node: r.node,
            wref: WeightedRef {
                obj: r.wref.obj,
                weight: half,
            },
        }
    }

    /// Release a batch of references: updates to the same owner are
    /// combined client-side (Figure 6.6) into one message per object.
    pub fn release_batch(&self, refs: Vec<RemoteRef>) {
        let n = self.senders.len();
        let mut per_owner: Vec<std::collections::HashMap<u64, u64>> =
            vec![std::collections::HashMap::new(); n];
        for r in refs {
            *per_owner[r.node].entry(r.wref.obj).or_insert(0) += r.wref.weight;
        }
        for (owner, updates) in per_owner.into_iter().enumerate() {
            if updates.is_empty() {
                continue;
            }
            self.senders[owner]
                .send(Request::WeightUpdate {
                    updates: updates.into_iter().collect(),
                })
                .expect("node alive");
        }
    }

    /// Current LPT occupancy of a node.
    pub fn occupancy(&self, node: usize) -> usize {
        let (reply, rx) = sync_channel(1);
        self.senders[node]
            .send(Request::Occupancy { reply })
            .expect("node alive");
        rx.recv().expect("node replies")
    }

    /// Shut every node down and join the threads.
    pub fn shutdown(self) {
        for tx in &self.senders {
            let _ = tx.send(Request::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};
    use std::sync::Arc;

    #[test]
    fn create_fetch_across_threads() {
        let mut i = Interner::new();
        let sys = ParallelSystem::spawn(3, 256);
        let e = parse("(a (b c) d)", &mut i).unwrap();
        let r = sys.create(1, e.clone());
        let got = sys.fetch(&r);
        assert_eq!(print(&got, &i), print(&e, &i));
        sys.release_batch(vec![r]);
        sys.shutdown();
    }

    #[test]
    fn concurrent_clients_share_weighted_references() {
        let mut i = Interner::new();
        let sys = Arc::new(ParallelSystem::spawn(4, 512));
        let e = parse("(shared (data 1 2 3))", &mut i).unwrap();
        let mut root = sys.create(0, e.clone());
        let expected = print(&e, &i);

        // 8 client threads each receive a weighted copy and fetch
        // concurrently; copies required no owner messages.
        let mut clients = Vec::new();
        for _ in 0..8 {
            let r = sys.copy_ref(&mut root);
            let sys2 = Arc::clone(&sys);
            let expect = expected.clone();
            let interner = i.clone();
            clients.push(std::thread::spawn(move || {
                let got = sys2.fetch(&r);
                assert_eq!(print(&got, &interner), expect);
                r
            }));
        }
        let returned: Vec<RemoteRef> = clients
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();

        // Everyone done: release all references in one combined batch,
        // then the owner must have reclaimed the object.
        sys.release_batch(returned);
        sys.release_batch(vec![root]);
        // Occupancy request is served after the updates (same queue).
        assert_eq!(sys.occupancy(0), 0, "object reclaimed at weight zero");
        match Arc::try_unwrap(sys) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("all clients joined"),
        }
    }

    #[test]
    fn many_objects_across_nodes() {
        let mut i = Interner::new();
        let sys = ParallelSystem::spawn(4, 512);
        let mut refs = Vec::new();
        for k in 0..40 {
            let e = parse(&format!("(obj {k} (payload {k}))"), &mut i).unwrap();
            refs.push(sys.create(k % 4, e));
        }
        for r in &refs {
            let got = sys.fetch(r);
            assert!(got.is_proper_list());
        }
        sys.release_batch(refs);
        for node in 0..4 {
            assert_eq!(sys.occupancy(node), 0, "node {node}");
        }
        sys.shutdown();
    }
}
