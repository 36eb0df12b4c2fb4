//! Seeded workload generators.
//!
//! Every workload is a fixed plan per client: a set of session *slots*,
//! each with a cyclic script of steps. A script is one or more session
//! lives (`Open`, evals, `Close`); when a slot reaches the end of its
//! script it starts over with a fresh session, so the expected replies
//! of one cycle cover a run of any length. The seed picks the program
//! texts (and, for `evict-churn`, the order in which slots are touched);
//! the server only ever sees the texts.
//!
//! Session lifetimes are set by what the LP survives on a 512-entry
//! LPT (see NOTES.md): the `gen` mix first fails `(err lp
//! true-overflow)` after 1229–1356 evals of one session, so its lives
//! are 224 generated programs long.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use small_serve::gen::programs_for;

/// Client connections (one thread each). The host has two cores, and
/// the server runs one shard per client.
pub const CLIENTS: usize = 2;

/// Generated programs per `gen`-mix session life (well below the
/// true-overflow point: 1229 evals at the earliest on the seeds tried).
const GEN_LIFE: usize = 224;

/// Session lives in one `wire-small` script.
const WIRE_LIVES: u64 = 96;

/// Session slots per client under `evict-churn` (32 in all, against 8
/// resident places: 2 shards × `max_resident` 4). See NOTES.md for why
/// not 64: every run batch re-reads each suspended blob of its shard.
const CHURN_SLOTS: usize = 16;

/// Zipf exponent of the `evict-churn` slot draw. Chosen so that about a
/// third of requests resume a suspended session, well away from one
/// half, where the median would flip between the hit and miss modes.
const CHURN_ZIPF_S: f64 = 1.6;

/// The helper library `vm-fit` and `lpt-spill` programs carry.
pub const LIB: &str = "(def append (lambda (a b) (cond ((null a) b) \
(t (cons (car a) (append (cdr a) b)))))) \
(def rev (lambda (a acc) (cond ((null a) acc) (t (rev (cdr a) (cons (car a) acc)))))) \
(def len (lambda (a) (cond ((null a) 0) (t (add 1 (len (cdr a))))))) \
(def iota (lambda (n acc) (cond ((lessp n 1) acc) (t (iota (sub n 1) (cons n acc)))))) \
(def fib (lambda (n) (cond ((lessp n 2) n) (t (add (fib (sub n 1)) (fib (sub n 2)))))))";

/// Largest list a `vm-fit` program builds.
pub const FIT_MAX_LIST: usize = 96;

/// Session-global list lengths one `lpt-spill` life cycles through.
/// From about 270 cells the lists true-overflow the table (see
/// NOTES.md).
pub const SPILL_SIZES: [usize; 6] = [130, 150, 170, 190, 210, 230];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `gen` mix, every session resident, on a replication primary.
    WireSmall,
    /// Recursive arithmetic and list work inside the LPT.
    VmFit,
    /// Session-global lists larger than the LPT.
    LptSpill,
    /// The `gen` mix over 64 sessions drawn from a Zipf law.
    EvictChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::VmFit,
        Workload::LptSpill,
        Workload::EvictChurn,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::VmFit => "vm-fit",
            Workload::LptSpill => "lpt-spill",
            Workload::EvictChurn => "evict-churn",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether some requests are meant to fail: the `gen` mix carries
    /// typed-error probes (`(car 5)`, division by zero, …). Elsewhere
    /// any `(err …)` reply is a defect of the plan.
    pub fn has_probes(self) -> bool {
        matches!(self, Workload::WireSmall | Workload::EvictChurn)
    }
}

/// One step of a slot's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Open a session on the slot's shard.
    Open,
    /// Evaluate a program on the slot's current session.
    Eval(String),
    /// Close the slot's session; must answer `(ok closed 0)`.
    Close,
}

/// A session slot: the shard its sessions live on and its cyclic
/// script (every life starts with `Open` and ends with `Close`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Home shard (`session id % shards`).
    pub shard: usize,
    /// The steps, replayed cyclically.
    pub script: Vec<Step>,
}

fn rng_for(w: Workload, seed: u64, stream: u64) -> StdRng {
    let salt = w as u64 + 1;
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03)
            ^ stream.wrapping_mul(0x94d0_49bb_1331_11eb),
    )
}

fn life(evals: impl IntoIterator<Item = String>) -> Vec<Step> {
    let mut steps = vec![Step::Open];
    steps.extend(evals.into_iter().map(Step::Eval));
    steps.push(Step::Close);
    steps
}

/// A `gen`-mix life: one `programs_for` stream under a derived client
/// number, so every life of every slot has its own programs.
fn gen_life(w: Workload, seed: u64, stream: u64) -> Vec<Step> {
    let derived = rng_for(w, seed, stream).gen::<u64>();
    life(programs_for(derived, stream, GEN_LIFE))
}

fn vm_fit_eval(template: usize, a: usize, b: usize) -> String {
    match template {
        0 => format!("{LIB} (add (fib 13) (len (rev (append (iota {a} nil) (iota {b} nil)) nil)))"),
        1 => format!("{LIB} (add (fib 13) (len (append (rev (iota {a} nil) nil) (iota {b} nil))))"),
        _ => format!("{LIB} (add (fib 13) (car (rev (append (iota {a} nil) (iota {b} nil)) nil)))"),
    }
}

/// One `vm-fit` life: 96 evals in pairs that split the 96 cells both
/// ways (`a`, `96 − a` then `96 − a`, `a`), so every pair, and so every
/// life, does the same work whatever the seed picks for `a`.
fn vm_fit_life(rng: &mut StdRng) -> Vec<Step> {
    let evals = (0..48).flat_map(|pair| {
        let a = rng.gen_range(16usize..=80);
        let b = FIT_MAX_LIST - a;
        [vm_fit_eval(pair % 3, a, b), vm_fit_eval(pair % 3, b, a)]
    });
    life(evals.collect::<Vec<_>>())
}

/// One `lpt-spill` round over session-global lists: build `a`, reverse
/// it into `b`, walk `b`, `rplaca`-walk `a`, build `c`, walk a copy of
/// `b` appended to `c`, tear down. At its peak a round holds
/// `3·na + nc` cells (`a`, `b`, the copy, `c`), more than the LPT.
fn spill_round(rng: &mut StdRng, na: usize, nc: usize) -> Vec<String> {
    let k = rng.gen_range(1i64..1000);
    vec![
        format!("{LIB} (setq a (iota {na} nil))"),
        format!("{LIB} (setq b (rev a nil))"),
        format!("{LIB} (len b)"),
        format!(
            "(prog (p) (setq p a) loop (cond ((null p) (return {k}))) \
             (rplaca p {k}) (setq p (cdr p)) (go loop))"
        ),
        format!("{LIB} (setq c (iota {nc} nil))"),
        format!("{LIB} (len (append b c))"),
        "(setq a nil)".to_string(),
        "(progn (setq b nil) (setq c nil))".to_string(),
    ]
}

/// One `lpt-spill` life: a round per size, each paired with the size
/// three places on. The order is fixed: compression work depends on
/// the order in which lists come and go, so a seeded order would make
/// the cost of a life vary from seed to seed. The seed picks the values
/// the `rplaca` walks write.
fn spill_life(rng: &mut StdRng) -> Vec<Step> {
    let sizes = SPILL_SIZES;
    let mut evals = Vec::new();
    for (r, &na) in sizes.iter().enumerate() {
        let nc = sizes[(r + 3) % sizes.len()];
        evals.extend(spill_round(rng, na, nc));
    }
    life(evals)
}

/// The slots of one client under workload `w` and `seed`.
pub fn slots(w: Workload, seed: u64, client: usize) -> Vec<Slot> {
    let c = client as u64;
    // Single-slot workloads keep each client's session on the shard
    // that owns its connection (the acceptor deals connection k to
    // shard k), so both shards carry one client's work.
    let single = |script: Vec<Step>| {
        vec![Slot {
            shard: client,
            script,
        }]
    };
    match w {
        // Enough lives that the gen mix's per-seed draw averages out.
        Workload::WireSmall => single(
            (0..WIRE_LIVES)
                .flat_map(|l| gen_life(w, seed, c * WIRE_LIVES + l))
                .collect(),
        ),
        Workload::VmFit => {
            let mut rng = rng_for(w, seed, c);
            single((0..2).flat_map(|_| vm_fit_life(&mut rng)).collect())
        }
        Workload::LptSpill => {
            let mut rng = rng_for(w, seed, c);
            single((0..2).flat_map(|_| spill_life(&mut rng)).collect())
        }
        Workload::EvictChurn => (0..CHURN_SLOTS)
            .map(|rank| {
                let stream = 100 + (c * CHURN_SLOTS as u64 + rank as u64) * 2;
                Slot {
                    // Alternate ranks across shards, offset per client,
                    // so the two hottest slots sit on different shards.
                    shard: (rank + client) % CLIENTS,
                    script: (0..2).flat_map(|l| gen_life(w, seed, stream + l)).collect(),
                }
            })
            .collect(),
    }
}

/// The seeded order in which one client touches its slots.
pub enum Picker {
    /// Always slot 0.
    Single,
    /// Zipf-distributed slot ranks.
    Zipf {
        /// Cumulative rank probabilities.
        cdf: Vec<f64>,
        /// The draw stream.
        rng: StdRng,
    },
}

impl Picker {
    /// The picker for one client.
    pub fn new(w: Workload, seed: u64, client: usize) -> Picker {
        if w != Workload::EvictChurn {
            return Picker::Single;
        }
        let weights: Vec<f64> = (1..=CHURN_SLOTS)
            .map(|k| (k as f64).powf(-CHURN_ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect();
        Picker::Zipf {
            cdf,
            rng: rng_for(w, seed, 1_000 + client as u64),
        }
    }

    /// The next slot to touch.
    pub fn next_slot(&mut self) -> usize {
        match self {
            Picker::Single => 0,
            Picker::Zipf { cdf, rng } => {
                let u: f64 = rng.gen();
                cdf.iter().position(|&p| u < p).unwrap_or(cdf.len() - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_core::LptStats;
    use small_lisp::compiler::FrontEnd;
    use small_serve::{ServeConfig, Session};
    use small_sexpr::{parse_all, Interner};

    const SEEDS: [u64; 3] = [1, 11, 977];

    fn evals(slot: &Slot) -> impl Iterator<Item = &str> {
        slot.script.iter().filter_map(|s| match s {
            Step::Eval(src) => Some(src.as_str()),
            _ => None,
        })
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for w in Workload::ALL {
            for c in 0..CLIENTS {
                assert_eq!(slots(w, 5, c), slots(w, 5, c), "{}", w.name());
                assert_ne!(slots(w, 5, c), slots(w, 6, c), "{}", w.name());
            }
            let draws = |seed| {
                let mut p = Picker::new(w, seed, 0);
                (0..64).map(|_| p.next_slot()).collect::<Vec<_>>()
            };
            assert_eq!(draws(5), draws(5));
        }
    }

    #[test]
    fn every_text_parses_and_compiles() {
        for w in Workload::ALL {
            for seed in SEEDS {
                for c in 0..CLIENTS {
                    for slot in slots(w, seed, c) {
                        for src in evals(&slot) {
                            let mut interner = Interner::new();
                            let front = FrontEnd::new(&mut interner);
                            let forms = parse_all(src, &mut interner)
                                .unwrap_or_else(|e| panic!("{src}: {e}"));
                            front
                                .compile(&forms)
                                .unwrap_or_else(|e| panic!("{src}: {e}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_life_opens_first_and_closes_last() {
        for w in Workload::ALL {
            for slot in slots(w, 3, 1) {
                assert_eq!(slot.script.first(), Some(&Step::Open));
                assert_eq!(slot.script.last(), Some(&Step::Close));
                assert!(slot.shard < CLIENTS);
            }
        }
    }

    /// Run one slot's first life on a real session; the LP ledger.
    fn run_life(slot: &Slot) -> LptStats {
        let mut s = Session::new(0, &ServeConfig::default());
        let first_life = slot.script[1..].iter().take_while(|s| **s != Step::Close);
        for step in first_life {
            let Step::Eval(src) = step else {
                panic!("a life holds only evals between open and close")
            };
            let reply = s.eval(src).encode();
            assert!(!reply.starts_with("(err"), "{src}: {reply}");
        }
        let ledger = s.ledger();
        assert_eq!(s.close().0, 0, "a life must leave an empty LPT");
        ledger
    }

    #[test]
    fn spill_lists_exceed_the_lpt_and_fit_lists_stay_inside() {
        let table = ServeConfig::default().table_size;
        // Every spill round holds `3·na + nc` live cells at its peak.
        for (r, &na) in SPILL_SIZES.iter().enumerate() {
            let nc = SPILL_SIZES[(r + 3) % SPILL_SIZES.len()];
            assert!(3 * na + nc > table, "round {r}");
            assert!((100..=400).contains(&na));
        }
        for seed in SEEDS {
            let spill = run_life(&slots(Workload::LptSpill, seed, 0)[0]);
            assert!(spill.compressed > 0, "seed {seed}: {spill:?}");
            let fit = run_life(&slots(Workload::VmFit, seed, 0)[0]);
            assert_eq!(fit.compressed, 0, "seed {seed}: {fit:?}");
            assert!(fit.max_occupancy < table, "seed {seed}: {fit:?}");
        }
        assert!(FIT_MAX_LIST < table);
    }
}
