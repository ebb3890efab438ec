//! Shared infrastructure for the evaluation harness.
//!
//! Each table/figure of the paper has a module in [`harness`] and a
//! binary of the same name in `src/bin/`; see DESIGN.md's per-experiment
//! index. The pieces the harnesses share:
//!
//! - [`synth::SyntheticSource`]: a [`clio_entrymap::BlockSource`] that
//!   *generates* block images on demand for a given entry placement, so
//!   Figure 3's 10⁷-block distances can be measured without materializing
//!   gigabytes;
//! - [`table`]: plain-text table printing for the harness output.

pub mod harness;
pub mod synth;
pub mod table;
