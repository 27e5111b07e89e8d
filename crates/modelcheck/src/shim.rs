//! Instrumented stand-ins for `std::sync::atomic` types.
//!
//! `shalom_core::sync` re-exports std atomics by default; with the
//! core crate's `modelcheck` feature it re-exports these shims
//! instead. Each shim delegates to the real std atomic — semantics are
//! untouched — but counts every operation into process-wide totals, so
//! a harness can assert which atomic traffic a code path generates
//! (e.g. "the prewarmed pool dispatch does exactly one `fetch_add` per
//! task claim").
//!
//! The counters themselves use plain std atomics with Relaxed
//! ordering: they are counter-class statistics, never synchronization.

use std::sync::atomic as sys;
pub use std::sync::atomic::Ordering;

static LOADS: sys::AtomicU64 = sys::AtomicU64::new(0);
static STORES: sys::AtomicU64 = sys::AtomicU64::new(0);
static RMWS: sys::AtomicU64 = sys::AtomicU64::new(0);

/// Process-wide operation totals since the last [`reset_op_counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `load` calls.
    pub loads: u64,
    /// `store` calls.
    pub stores: u64,
    /// Read-modify-writes: `swap`, `fetch_*`, `compare_exchange*`.
    pub rmws: u64,
}

impl OpCounts {
    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.rmws
    }
}

/// Snapshot the counters.
pub fn op_counts() -> OpCounts {
    OpCounts {
        loads: LOADS.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        rmws: RMWS.load(Ordering::Relaxed),
    }
}

/// Zero the counters (racy against concurrent traffic; intended for
/// single-threaded harness setup).
pub fn reset_op_counts() {
    LOADS.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
    RMWS.store(0, Ordering::Relaxed);
}

macro_rules! shim_atomic {
    ($name:ident, $inner:ty, $prim:ty) => {
        /// Instrumented drop-in for the std atomic of the same name.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            /// Creates the atomic; `const` so statics work unchanged.
            pub const fn new(v: $prim) -> Self {
                Self {
                    inner: <$inner>::new(v),
                }
            }

            /// Counted `load`.
            pub fn load(&self, order: Ordering) -> $prim {
                LOADS.fetch_add(1, Ordering::Relaxed);
                self.inner.load(order)
            }

            /// Counted `store`.
            pub fn store(&self, val: $prim, order: Ordering) {
                STORES.fetch_add(1, Ordering::Relaxed);
                self.inner.store(val, order)
            }

            /// Counted `swap`.
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                RMWS.fetch_add(1, Ordering::Relaxed);
                self.inner.swap(val, order)
            }

            /// Counted `compare_exchange`.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                RMWS.fetch_add(1, Ordering::Relaxed);
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

shim_atomic!(AtomicBool, sys::AtomicBool, bool);
shim_atomic!(AtomicUsize, sys::AtomicUsize, usize);
shim_atomic!(AtomicU64, sys::AtomicU64, u64);

macro_rules! shim_fetch_arith {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Counted `fetch_add`.
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                RMWS.fetch_add(1, Ordering::Relaxed);
                self.inner.fetch_add(val, order)
            }

            /// Counted `fetch_sub`.
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                RMWS.fetch_add(1, Ordering::Relaxed);
                self.inner.fetch_sub(val, order)
            }
        }
    };
}

shim_fetch_arith!(AtomicUsize, usize);
shim_fetch_arith!(AtomicU64, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shims_delegate_and_count() {
        // Statics must construct in const context, like the real thing.
        static N: AtomicUsize = AtomicUsize::new(7);
        static F: AtomicBool = AtomicBool::new(false);

        let before = op_counts();
        assert_eq!(N.fetch_add(3, Ordering::Relaxed), 7);
        assert_eq!(N.load(Ordering::Acquire), 10);
        N.store(1, Ordering::Release);
        assert_eq!(N.swap(2, Ordering::AcqRel), 1);
        assert_eq!(
            N.compare_exchange(2, 5, Ordering::AcqRel, Ordering::Acquire),
            Ok(2)
        );
        F.store(true, Ordering::Relaxed);
        assert!(F.load(Ordering::Relaxed));
        let d = op_counts();
        assert_eq!(d.loads - before.loads, 2);
        assert_eq!(d.stores - before.stores, 2);
        assert_eq!(d.rmws - before.rmws, 3);
    }
}
