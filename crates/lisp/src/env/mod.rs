//! Dynamic-binding environments (§2.2.1, §2.3.2).
//!
//! The environment is the collection of referencing contexts of all
//! uncompleted function calls: a set of name→value bindings updated on
//! every call and return, interrogated on every variable reference. The
//! thesis contrasts two implementations plus a cached hybrid, all built
//! here behind one trait:
//!
//! * [`DeepEnv`] — an association list; fast call/return, slow lookup
//!   (Figure 2.3),
//! * [`ShallowEnv`] — an oblist of value cells plus a save stack; fast
//!   lookup, slower call/return (Figure 2.4),
//! * [`ValueCacheEnv`] — deep binding fronted by a FACOM-Alpha style
//!   value cache with frame-number invalidation (Figure 2.5).
//!
//! Each records the operation counts a machine designer would care about
//! ([`EnvStats`]), which `repro survey` compares.

mod deep;
mod shallow;
mod value_cache;

pub use deep::DeepEnv;
pub use shallow::ShallowEnv;
pub use value_cache::ValueCacheEnv;

use crate::value::Value;
use small_sexpr::Symbol;

/// Cost counters for an environment implementation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EnvStats {
    /// Name lookups requested.
    pub lookups: u64,
    /// Association-list cells (or table slots) inspected during lookups.
    pub probes: u64,
    /// Bindings added (function-call work).
    pub binds: u64,
    /// Bindings removed/restored (function-return work).
    pub unbinds: u64,
    /// Value-cache hits (zero for uncached implementations).
    pub cache_hits: u64,
    /// Value-cache misses (zero for uncached implementations).
    pub cache_misses: u64,
}

/// A dynamic-binding environment.
pub trait Environment {
    /// Enter a new referencing context (function call).
    fn push_frame(&mut self);

    /// Leave the current context (function return), undoing its bindings.
    fn pop_frame(&mut self);

    /// Add a binding to the current context.
    fn bind(&mut self, name: Symbol, v: Value);

    /// Current binding of `name`, most recent context first.
    fn lookup(&mut self, name: Symbol) -> Option<Value>;

    /// `setq`: overwrite the most recent binding of `name`; if unbound,
    /// create a top-level (global) binding. Returns the new value.
    fn set(&mut self, name: Symbol, v: Value) -> Value;

    /// Current frame depth (0 = top level).
    fn depth(&self) -> usize;

    /// Cost counters.
    fn stats(&self) -> EnvStats;
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A shared conformance suite run against every implementation —
    //! all three must agree on *semantics*, differing only in cost.

    use super::*;
    use small_sexpr::Interner;

    pub fn exercise<E: Environment>(mut env: E) {
        let mut i = Interner::new();
        let x = i.intern("x");
        let y = i.intern("y");

        // Top-level binding.
        env.bind(x, Value::Int(1));
        assert!(matches!(env.lookup(x), Some(Value::Int(1))));
        assert!(env.lookup(y).is_none());

        // Call shadows x.
        env.push_frame();
        env.bind(x, Value::Int(2));
        env.bind(y, Value::Int(3));
        assert!(matches!(env.lookup(x), Some(Value::Int(2))));
        assert!(matches!(env.lookup(y), Some(Value::Int(3))));

        // Nested call shadows again.
        env.push_frame();
        env.bind(x, Value::Int(4));
        assert!(matches!(env.lookup(x), Some(Value::Int(4))));
        assert!(
            matches!(env.lookup(y), Some(Value::Int(3))),
            "y from outer frame"
        );

        // setq updates the latest binding.
        env.set(x, Value::Int(5));
        assert!(matches!(env.lookup(x), Some(Value::Int(5))));
        env.pop_frame();
        assert!(
            matches!(env.lookup(x), Some(Value::Int(2))),
            "shadowing undone"
        );

        env.pop_frame();
        assert!(matches!(env.lookup(x), Some(Value::Int(1))));
        assert!(env.lookup(y).is_none(), "call bindings removed on return");

        // setq of an unbound name creates a global.
        env.set(y, Value::Int(9));
        assert!(matches!(env.lookup(y), Some(Value::Int(9))));

        // Global set survives a call/return pair.
        env.push_frame();
        env.set(y, Value::Int(10));
        env.pop_frame();
        assert!(matches!(env.lookup(y), Some(Value::Int(10))));
    }
}
