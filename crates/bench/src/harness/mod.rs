//! The table/figure harnesses, one module each.
//!
//! Each module's `run(out, args)` prints the harness's text to `out`. The
//! binary of the same name in `src/bin/` is [`main`] over that function,
//! so the binary's stdout and the text `tests/golden.rs` checks against
//! `golden/<name>.txt` are the same bytes.

use std::io;

pub mod abl_fanout;
pub mod abl_locators;
pub mod abl_ramtail;
pub mod conc_read;
pub mod fig2_tree;
pub mod fig3_locate;
pub mod fig4_init;
pub mod group_commit;
pub mod mot_fs;
pub mod multi_shard;
pub mod obs_http;
pub mod sec32_write;
pub mod sec33_cold;
pub mod sec35_space;
pub mod sec4_hbfs;
pub mod table1_read;

/// Runs a harness as a binary: its text to stdout, the process's
/// arguments as its flags.
pub fn main<F>(run: F) -> io::Result<()>
where
    F: FnOnce(&mut io::StdoutLock<'static>, &[String]) -> io::Result<()>,
{
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&mut io::stdout().lock(), &args)
}
