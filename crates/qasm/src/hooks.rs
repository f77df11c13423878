//! Process-wide ingest counters, exposed as a test hook.
//!
//! The skeleton-first warm path's whole promise is that a cache hit
//! never materializes a [`qxmap_circuit::Circuit`]. A promise like that
//! silently rots unless something counts: every site that builds a
//! circuit from external input (text conversion, QXBC decoding) bumps
//! [`circuits_built`], so a test can pin "this request built zero
//! circuits" instead of trusting the code path's shape. The counter is
//! one relaxed atomic increment per *circuit* (not per gate) — noise
//! next to the build itself.

use std::sync::atomic::{AtomicU64, Ordering};

static CIRCUITS_BUILT: AtomicU64 = AtomicU64::new(0);

/// Number of circuits materialized from QASM text or QXBC bytes since
/// process start. Monotonic; meaningful as a *delta* around the
/// operation under test.
pub fn circuits_built() -> u64 {
    CIRCUITS_BUILT.load(Ordering::Relaxed)
}

/// Records one circuit materialization (called by [`crate::Parsed::to_circuit`]
/// and [`crate::decode_qxbc`]).
pub(crate) fn note_circuit_built() {
    CIRCUITS_BUILT.fetch_add(1, Ordering::Relaxed);
}
