//! The rule catalogue. Each rule lives in its own module with a `NAME`
//! constant and a `check` entry point taking a [`SourceFile`], so rules
//! are individually testable against in-memory fixtures.

pub mod env_config;
pub mod one_log_reader;
pub mod one_map_reader;
pub mod raw_atomics;
pub mod raw_locks;
pub mod registry_deps;
pub mod unsafe_only_in;
pub mod unwrap_ratchet;
pub mod wallclock;
pub mod worm_writes;

use crate::{Diag, SourceFile};

/// Runs every token rule that applies to `sf` (the unwrap ratchet is
/// handled separately because it aggregates per crate, not per file).
pub fn check_source(sf: &SourceFile, out: &mut Vec<Diag>) {
    registry_deps::check(sf, out);
    raw_locks::check(sf, out);
    raw_atomics::check(sf, out);
    wallclock::check(sf, out);
    worm_writes::check(sf, out);
    env_config::check(sf, out);
    one_log_reader::check(sf, out);
    one_map_reader::check(sf, out);
    unsafe_only_in::check(sf, out);
}
