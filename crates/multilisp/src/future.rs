//! Futures and parallel argument evaluation (§6.2.1.2).
//!
//! In Halstead's Multilisp, `(future X)` immediately returns a pseudo
//! value while `X` evaluates concurrently; a consumer that needs the
//! real value **touches** the future and blocks until it resolves.
//! `pcall` evaluates a call's arguments in parallel — the "implicit
//! parallelism" of §6.2.1.1 made explicit. Parallel evaluation must not
//! violate sequential Lisp semantics; these combinators are safe for
//! side-effect-free computations, which the caller asserts by using
//! them (the same contract Multilisp places on the programmer).

use std::sync::mpsc::{sync_channel, Receiver};
use std::thread;

/// A value that may still be computing.
pub struct Future<T> {
    state: FutureState<T>,
}

enum FutureState<T> {
    Pending(Receiver<T>, thread::JoinHandle<()>),
    Ready(T),
    Taken,
}

/// Spawn `f` on its own thread; returns immediately with a future.
pub fn future<T, F>(f: F) -> Future<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = sync_channel(1);
    let handle = thread::spawn(move || {
        // A dropped future never touches the channel; ignore send errors.
        let _ = tx.send(f());
    });
    Future {
        state: FutureState::Pending(rx, handle),
    }
}

impl<T> Future<T> {
    /// An already-resolved future.
    pub fn ready(v: T) -> Future<T> {
        Future {
            state: FutureState::Ready(v),
        }
    }

    /// Whether the value has resolved (without blocking).
    pub fn is_ready(&self) -> bool {
        match &self.state {
            FutureState::Pending(_, handle) => handle.is_finished(),
            FutureState::Ready(_) => true,
            FutureState::Taken => false,
        }
    }

    /// Touch: block until the value is available, then return a
    /// reference to it.
    pub fn touch(&mut self) -> &T {
        if let FutureState::Pending(rx, _) = &self.state {
            let v = rx.recv().expect("future producer panicked");
            if let FutureState::Pending(_, handle) =
                std::mem::replace(&mut self.state, FutureState::Ready(v))
            {
                let _ = handle.join();
            }
        }
        match &self.state {
            FutureState::Ready(v) => v,
            _ => unreachable!("touch resolves the future"),
        }
    }

    /// Touch and take ownership of the value.
    pub fn take(mut self) -> T {
        self.touch();
        match std::mem::replace(&mut self.state, FutureState::Taken) {
            FutureState::Ready(v) => v,
            _ => unreachable!("touched above"),
        }
    }
}

/// Evaluate all thunks in parallel and return their values in call
/// order — parallel argument evaluation (§6.2.1.1), consistent with
/// left-to-right sequential semantics for independent arguments.
pub fn pcall<T, F>(thunks: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let futures: Vec<Future<T>> = thunks.into_iter().map(future).collect();
    futures.into_iter().map(Future::take).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn future_resolves() {
        let mut f = future(|| 6 * 7);
        assert_eq!(*f.touch(), 42);
        assert_eq!(*f.touch(), 42, "idempotent");
    }

    #[test]
    fn ready_future() {
        let mut f = Future::ready("x");
        assert!(f.is_ready());
        assert_eq!(*f.touch(), "x");
    }

    #[test]
    fn pcall_preserves_argument_order() {
        let vals = pcall((0..16).map(|k| move || k * k).collect::<Vec<_>>());
        assert_eq!(vals, (0..16).map(|k| k * k).collect::<Vec<_>>());
    }

    #[test]
    fn pcall_actually_overlaps() {
        // All thunks wait on a shared barrier: with sequential
        // evaluation this would deadlock; parallel evaluation completes.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let thunks: Vec<_> = (0..4)
            .map(|k| {
                let b = Arc::clone(&barrier);
                move || {
                    b.wait();
                    k
                }
            })
            .collect();
        let vals = pcall(thunks);
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_tree_sum_matches_sequential() {
        // The Chapter 6 motivating shape: evaluate a function's argument
        // sub-expressions in parallel.
        fn tree_sum(depth: u32, seed: u64) -> u64 {
            if depth == 0 {
                return seed % 1000;
            }
            let l = tree_sum(depth - 1, seed.wrapping_mul(31).wrapping_add(1));
            let r = tree_sum(depth - 1, seed.wrapping_mul(37).wrapping_add(2));
            l + r
        }
        let sequential = tree_sum(6, 1) + tree_sum(6, 2);
        let parallel: u64 = pcall(vec![
            (|| tree_sum(6, 1)) as fn() -> u64,
            (|| tree_sum(6, 2)) as fn() -> u64,
        ])
        .into_iter()
        .sum();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn dropped_future_does_not_hang() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let f = future(move || {
            c.fetch_add(1, Ordering::SeqCst);
            1
        });
        drop(f); // producer may still run; dropping must not deadlock
    }
}
