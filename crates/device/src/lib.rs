#![warn(missing_docs)]
//! Log devices and block stores for the Clio log service.
//!
//! The paper requires the log device only to be "a non-volatile,
//! block-oriented storage device that supports random access for reading,
//! and append-only write access" (§2). We do not have a write-once optical
//! drive, so — exactly as the authors themselves did during development
//! (§3.1: "the current configuration uses magnetic disk to simulate
//! write-once storage") — this crate provides devices that *enforce* the
//! append-only contract in software:
//!
//! - [`WormDevice`]: the write-once rule itself, stated once over a medium
//!   that has none — memory ([`MemWormDevice`], the workhorse for tests and
//!   benchmarks) or a host file ([`FileWormDevice`]);
//! - [`RamTailDevice`]: a wrapper modelling battery-backed RAM at the tail of
//!   the device, so the most recent partial block stays rewriteable until
//!   sealed (§2.3.1);
//! - [`InstrumentedDevice`]: a wrapper counting block reads, appends and
//!   seeks, which benchmarks convert into modelled 1987 latencies;
//! - [`FaultyDevice`]: a fault-injection wrapper that corrupts blocks, to
//!   exercise the recovery paths of §2.3.
//!
//! The crate also defines [`BlockStore`], the *rewriteable* block device used
//! by the conventional file system substrate (`clio-fs`), over the same two
//! media.

pub mod fault;
mod medium;
pub mod mirror;
pub mod ram_tail;
pub mod stats;
pub mod store;
pub mod traits;
pub mod worm;

pub use fault::{CrashSwitch, FaultyDevice};
pub use mirror::MirroredDevice;
pub use ram_tail::RamTailDevice;
pub use stats::{DeviceStats, InstrumentedDevice};
pub use store::{BlockStore, FileBlockStore, MemBlockStore};
pub use traits::{LogDevice, SharedDevice};
pub use worm::{FileWormDevice, MemWormDevice, WormDevice};
