//! Workspace-wide constants and defaults.
//!
//! The defaults follow the paper's measured configuration (§3.2): 1 KiB
//! blocks and an entrymap fan-out of N = 16.

/// Default log device block size in bytes (the paper used 1 kbyte blocks).
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Minimum block size the block format supports.
///
/// A block must hold its trailer, at least one index slot, and a non-trivial
/// amount of entry data.
pub const MIN_BLOCK_SIZE: usize = 128;

/// Maximum block size the block format supports: the size index stores
/// 16-bit sizes.
pub const MAX_BLOCK_SIZE: usize = 1 << 16;

/// Default degree (fan-out) `N` of the entrymap search tree.
///
/// The paper concludes (§3.3.1, §3.4) that N in the range 16–32 provides
/// excellent read performance without excessive initialization cost.
pub const DEFAULT_FANOUT: usize = 16;

/// Largest entrymap degree a volume may be created or mounted with (the
/// least is 2, the smallest tree that is a tree).
pub const MAX_FANOUT: usize = 1024;

/// Maximum number of distinct log files per volume sequence.
///
/// The local-logfile-id field in an entry header is 12 bits (§2.2), so at
/// most 4096 log files can ever be created on one volume sequence.
pub const MAX_LOGFILES: usize = 1 << 12;

/// Number of low local-logfile-ids reserved for the service's own log files.
pub const FIRST_CLIENT_LOGFILE_ID: u16 = 8;

/// The byte value a fully "burned" (invalidated) write-once block holds.
///
/// Invalidation overwrites a corrupted block with all 1s (§2.3.2); on real
/// WORM media this is always physically possible because bits only ever
/// transition one way.
pub const INVALIDATED_BYTE: u8 = 0xFF;
