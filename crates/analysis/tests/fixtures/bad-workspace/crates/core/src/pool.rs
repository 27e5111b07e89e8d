//! Fixture: untagged atomic sites and a Relaxed store published to an
//! Acquire load (the relaxed-publish pattern rule).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static READY: AtomicUsize = AtomicUsize::new(0);
static DATA: AtomicU64 = AtomicU64::new(0);

#[cfg(feature = "trace")]
pub fn traced() {}

#[cfg(feature = "undeclared")]
pub fn ghost() {}

pub fn publish() {
    DATA.store(1, Ordering::Relaxed);
    READY.store(1, Ordering::Relaxed);
}

pub fn consume() -> u64 {
    if READY.load(Ordering::Acquire) == 1 {
        return DATA.load(Ordering::Relaxed);
    }
    0
}
