#![warn(missing_docs)]
//! Clio: an extended file service providing log files on write-once storage.
//!
//! Umbrella crate re-exporting all Clio subsystems.
pub use clio_cache as cache;
pub use clio_core as core;
pub use clio_costmodel as costmodel;
pub use clio_device as device;
pub use clio_entrymap as entrymap;
pub use clio_format as format;
pub use clio_fs as fs;
pub use clio_history as history;
pub use clio_obs as obs;
pub use clio_testkit as testkit;
pub use clio_types as types;
pub use clio_volume as volume;
