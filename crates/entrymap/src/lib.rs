#![warn(missing_docs)]
//! The entrymap search tree (§2.1, §3.3) and its baselines.
//!
//! "To efficiently locate the entries in log files, the server maintains a
//! special log file called the entrymap log file. The data in this log file
//! describes a sparse bitmap for each (other) log file, indicating which
//! blocks on the log device contain log entries in this log file." (§2.1)
//!
//! A level-`i` entrymap entry appears every `N^i` blocks and covers the
//! previous `N^i` blocks with one `N`-bit bitmap per active log file. The
//! entries effectively form a search tree of degree `N` (Figure 2); locating
//! an entry `d` blocks away examines about `2·log_N d` entrymap entries
//! (§3.3.1, Figure 3).
//!
//! This crate provides:
//!
//! - [`Geometry`]: block/group/level arithmetic;
//! - [`EntrymapWriter`]: decides which entrymap records to emit at each
//!   block boundary and maintains the in-memory *pending* bitmaps for the
//!   not-yet-mapped tail of the log;
//! - [`Locator`]: the backward/forward search over the tree, tolerant of
//!   invalidated and displaced map blocks (§2.3.2);
//! - [`tsearch`]: locating a block by timestamp (§2.1);
//! - [`rebuild`]: reconstructing the pending bitmaps after a crash (§2.3.1,
//!   Figure 4);
//! - [`naive`] and [`binary_tree`]: the exhaustive-scan floor and a
//!   Daniels-style binary-tree locator (§5.1), as baselines;
//! - [`theory`]: the paper's closed-form cost curves for Figures 3 and 4.
//!
//! Throughout this crate, block numbers are *data-block* coordinates: block
//! `db` here is device block `db + 1` (device block 0 is the volume label).

pub mod binary_tree;
mod chain;
pub mod geometry;
pub mod harness;
pub mod locate;
pub mod naive;
pub mod pending;
pub mod rebuild;
pub mod source;
pub mod theory;
pub mod tsearch;
pub mod writer;

pub use geometry::Geometry;
pub use locate::{LocateStats, Locator, MapMemo};
pub use pending::PendingMaps;
pub use rebuild::{rebuild_pending, rebuild_pending_with_findings, RebuildFindings, RebuildStats};
pub use source::BlockSource;
pub use writer::EntrymapWriter;
