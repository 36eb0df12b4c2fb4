//! The multi-node SMALL system (Figures 6.1, 6.4–6.6).
//!
//! Each node is a complete SMALL engine — an EP/LP pair with its own
//! LPT — connected to its peers by message channels (Figure 6.1). List
//! objects live on their *owner* node; other nodes hold **global
//! references** `(node, identifier)` protected by reference weights
//! (Figure 6.4 extends the LPT entry with a weight field; here the
//! owner-side weights live in a per-node [`WeightTable`] keyed by
//! identifier).
//!
//! Two Chapter 6 mechanisms are reproduced and measured:
//!
//! * **weight-based copying** (Figure 6.5): passing a reference to
//!   another node splits its weight locally — no message to the owner;
//! * **combining queues** (Figure 6.6): outgoing weight decrements
//!   addressed to the same object are merged in the sender's queue, so a
//!   burst of releases costs one message.
//!
//! Message delivery is deterministic (explicit [`MultiNode::flush`]), so
//! the accounting the tests assert is exact.

use crate::weights::{WeightTable, WeightedRef};
use small_core::{Id, ListProcessor, LpConfig, LpValue, RootKind};
use small_heap::controller::TwoPointerController;
use small_sexpr::SExpr;

/// A reference to a list object that may live on another node.
#[derive(Debug)]
pub struct GlobalRef {
    /// Owner node index.
    pub node: usize,
    /// The weighted reference to the owner's object.
    wref: WeightedRef,
}

impl GlobalRef {
    /// The owner-node LPT identifier.
    pub fn id(&self) -> Id {
        self.wref.obj as Id
    }
}

/// One outgoing weight-decrement queue with combining (Figure 6.6).
#[derive(Debug, Default)]
pub struct CombiningQueue {
    entries: Vec<(u64, u64)>, // (obj, accumulated weight)
    /// Updates enqueued.
    pub enqueued: u64,
    /// Updates absorbed by combining (messages saved).
    pub combined: u64,
}

impl CombiningQueue {
    /// Queue a decrement, combining with a pending update to the same
    /// object if present.
    pub fn push(&mut self, obj: u64, weight: u64) {
        self.enqueued += 1;
        if let Some(e) = self.entries.iter_mut().find(|(o, _)| *o == obj) {
            e.1 += weight;
            self.combined += 1;
        } else {
            self.entries.push((obj, weight));
        }
    }

    /// Drain the queue (one message per remaining entry).
    pub fn drain(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.entries)
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct Node {
    lp: ListProcessor<TwoPointerController>,
    weights: WeightTable,
    /// Outgoing decrement queues, one per peer (indexed by owner node).
    outgoing: Vec<CombiningQueue>,
}

/// System-wide message statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Weight-decrement messages delivered.
    pub weight_messages: u64,
    /// Copy-request/reply message pairs.
    pub copy_messages: u64,
    /// Messages saved by combining.
    pub combined_saved: u64,
}

/// The multi-node system.
pub struct MultiNode {
    nodes: Vec<Node>,
    /// Network statistics.
    pub stats: NetStats,
}

impl MultiNode {
    /// Create `n` nodes, each with an LPT of `table_size` entries.
    pub fn new(n: usize, table_size: usize) -> Self {
        let nodes = (0..n)
            .map(|_| Node {
                lp: ListProcessor::new(
                    TwoPointerController::new(1 << 16, 64),
                    LpConfig {
                        table_size,
                        ..LpConfig::default()
                    },
                ),
                weights: WeightTable::new(),
                outgoing: (0..n).map(|_| CombiningQueue::default()).collect(),
            })
            .collect();
        MultiNode {
            nodes,
            stats: NetStats::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Live LPT occupancy of a node.
    pub fn occupancy(&self, node: usize) -> usize {
        self.nodes[node].lp.occupancy()
    }

    /// Create a list object on `node`; returns a weighted global
    /// reference (the creator holds it).
    pub fn create(&mut self, node: usize, e: &SExpr) -> GlobalRef {
        let n = &mut self.nodes[node];
        let v = n.lp.readlist(None, e).expect("node LPT/heap exhausted");
        let id = v.obj().expect("create of an atom");
        let wref = n.weights.create(u64::from(id));
        GlobalRef { node, wref }
    }

    /// Copy a reference (for passing to another node): weight splits
    /// locally, **no message** (Figure 6.5).
    pub fn copy_ref(&mut self, r: &mut GlobalRef) -> GlobalRef {
        let wref = r.wref.split(&mut self.nodes[r.node].weights);
        GlobalRef { node: r.node, wref }
    }

    /// Release a reference held by `holder`: the decrement is queued in
    /// the holder's combining queue toward the owner.
    pub fn release(&mut self, holder: usize, r: GlobalRef) {
        let owner = r.node;
        // The reference's weight travels in the queued message;
        // WeightedRef has no Drop, so consuming it here is the release.
        self.nodes[holder].outgoing[owner].push(r.wref.obj, r.wref.weight);
    }

    /// Fetch the s-expression behind a (possibly remote) reference: one
    /// copy-request/reply pair when remote, free locally.
    pub fn fetch(&mut self, from: usize, r: &GlobalRef) -> SExpr {
        if from != r.node {
            self.stats.copy_messages += 1;
        }
        let id = r.id();
        self.nodes[r.node]
            .lp
            .writelist(LpValue::Obj(id))
            .expect("fetch of live object")
    }

    /// Deliver all queued weight updates. Returns the number of weight
    /// messages sent.
    pub fn flush(&mut self) -> u64 {
        let mut sent = 0u64;
        for holder in 0..self.nodes.len() {
            for owner in 0..self.nodes.len() {
                let q = &mut self.nodes[holder].outgoing[owner];
                let msgs = q.drain();
                let saved = q.combined;
                q.combined = 0;
                q.enqueued = 0;
                self.stats.combined_saved += saved;
                for (obj, weight) in msgs {
                    sent += 1;
                    self.stats.weight_messages += 1;
                    let node = &mut self.nodes[owner];
                    node.weights.decrement(obj, weight);
                    if !node.weights.alive(obj) {
                        // Last reference anywhere: the owner's LPT entry
                        // (created with one EP reference) is released.
                        node.lp.unroot(LpValue::Obj(obj as Id), RootKind::Binding);
                        node.lp.drain_unroots();
                    }
                }
            }
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::{parse, print, Interner};

    fn sys() -> (Interner, MultiNode) {
        (Interner::new(), MultiNode::new(4, 256))
    }

    #[test]
    fn remote_fetch_returns_structure() {
        let (mut i, mut m) = sys();
        let e = parse("(a (b c) d)", &mut i).unwrap();
        let r = m.create(0, &e);
        let got = m.fetch(2, &r);
        assert_eq!(print(&got, &i), "(a (b c) d)");
        assert_eq!(m.stats.copy_messages, 1);
        // Local fetch is free.
        m.fetch(0, &r);
        assert_eq!(m.stats.copy_messages, 1);
    }

    #[test]
    fn copying_references_costs_no_messages() {
        let (mut i, mut m) = sys();
        let e = parse("(x)", &mut i).unwrap();
        let mut r = m.create(0, &e);
        let mut held = Vec::new();
        for _ in 0..20 {
            held.push(m.copy_ref(&mut r)); // would be 20 increments naively
        }
        assert_eq!(m.stats.weight_messages, 0);
        assert_eq!(m.flush(), 0, "nothing queued by copies");
        // Cleanup.
        for h in held {
            m.release(1, h);
        }
        m.release(0, r);
        m.flush();
    }

    #[test]
    fn combining_queue_merges_same_object_updates() {
        // Figure 6.6: a burst of releases to one object → one message.
        let (mut i, mut m) = sys();
        let e = parse("(x y)", &mut i).unwrap();
        let mut r = m.create(0, &e);
        let held: Vec<GlobalRef> = (0..10).map(|_| m.copy_ref(&mut r)).collect();
        for h in held {
            m.release(3, h); // all from node 3, all to the same object
        }
        let sent = m.flush();
        assert_eq!(sent, 1, "10 releases combine into 1 weight message");
        assert_eq!(m.stats.combined_saved, 9);
        m.release(0, r);
        m.flush();
    }

    #[test]
    fn object_reclaimed_when_global_weight_zero() {
        let (mut i, mut m) = sys();
        let e = parse("(q r s)", &mut i).unwrap();
        let mut r = m.create(1, &e);
        let occupied = m.occupancy(1);
        let c = m.copy_ref(&mut r);
        m.release(2, c);
        m.flush();
        assert_eq!(m.occupancy(1), occupied, "object still referenced");
        m.release(0, r);
        m.flush();
        assert!(
            m.occupancy(1) < occupied,
            "owner LPT entry freed when weight hit zero"
        );
    }

    #[test]
    fn distributed_fan_out_and_teardown() {
        let (mut i, mut m) = sys();
        let mut roots = Vec::new();
        for k in 0..8 {
            let e = parse(&format!("(obj {k})"), &mut i).unwrap();
            let mut r = m.create(k % 4, &e);
            for holder in 0..4 {
                let c = m.copy_ref(&mut r);
                // Exercise remote fetch from each holder.
                let _ = m.fetch(holder, &c);
                m.release(holder, c);
            }
            roots.push(r);
        }
        for r in roots.drain(..) {
            m.release(0, r);
        }
        m.flush();
        for node in 0..4 {
            assert_eq!(m.occupancy(node), 0, "node {node} must be empty");
        }
        // Weight messages ≤ one per (holder, object) burst + root.
        assert!(m.stats.weight_messages <= 8 * 4 + 8);
    }
}
