//! Deep binding: the environment as an association list (Figure 2.3).
//!
//! New bindings are pushed at the head on function call and popped on
//! return — O(1) call/return. Lookup scans from the head for the most
//! recent binding — O(environment size) worst case, the cost the thesis
//! repeatedly flags. The scan length is recorded in
//! [`EnvStats::probes`].

use super::{EnvStats, Environment};
use crate::value::Value;
use small_sexpr::Symbol;

/// Association-list environment.
#[derive(Default)]
pub struct DeepEnv {
    /// The a-list, head at the end of the Vec (push/pop at the tail).
    alist: Vec<(Symbol, Value)>,
    /// Start index of each open frame.
    frames: Vec<usize>,
    stats: EnvStats,
}

impl DeepEnv {
    /// Create an empty environment.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Environment for DeepEnv {
    fn push_frame(&mut self) {
        self.frames.push(self.alist.len());
    }

    fn pop_frame(&mut self) {
        let mark = self.frames.pop().expect("pop of top-level frame");
        self.stats.unbinds += (self.alist.len() - mark) as u64;
        self.alist.truncate(mark);
    }

    fn bind(&mut self, name: Symbol, v: Value) {
        self.stats.binds += 1;
        self.alist.push((name, v));
    }

    fn lookup(&mut self, name: Symbol) -> Option<Value> {
        self.stats.lookups += 1;
        for (n, v) in self.alist.iter().rev() {
            self.stats.probes += 1;
            if *n == name {
                return Some(v.clone());
            }
        }
        None
    }

    fn set(&mut self, name: Symbol, v: Value) -> Value {
        for (n, slot) in self.alist.iter_mut().rev() {
            if *n == name {
                *slot = v.clone();
                return v;
            }
        }
        // Unbound: create a global (bottom-of-alist) binding so it
        // survives every open frame.
        self.alist.insert(0, (name, v.clone()));
        for f in &mut self.frames {
            *f += 1;
        }
        self.stats.binds += 1;
        v
    }

    fn depth(&self) -> usize {
        self.frames.len()
    }

    fn stats(&self) -> EnvStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_sexpr::Interner;

    #[test]
    fn conformance() {
        super::super::conformance::exercise(DeepEnv::new());
    }

    #[test]
    fn lookup_cost_grows_with_depth() {
        let mut i = Interner::new();
        let mut env = DeepEnv::new();
        let bottom = i.intern("bottom");
        env.bind(bottom, Value::Int(0));
        for k in 0..50 {
            env.push_frame();
            env.bind(i.intern(&format!("v{k}")), Value::Int(k));
        }
        let before = env.stats().probes;
        env.lookup(bottom);
        let probes = env.stats().probes - before;
        assert_eq!(probes, 51, "deep lookup scans the whole a-list");
    }

    #[test]
    fn call_return_is_cheap() {
        let mut env = DeepEnv::new();
        env.push_frame();
        env.pop_frame();
        assert_eq!(env.stats().probes, 0);
    }
}
