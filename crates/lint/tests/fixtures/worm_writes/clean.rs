//! Fixture: device code that plays by the rules — all raw access goes
//! through the audited surface. `OpenOptions` in this comment is prose.
use crate::medium::{self, Medium};

fn f(path: &std::path::Path, buf: &[u8]) -> std::io::Result<u64> {
    let mut file = medium::open_rw(path)?;
    file.append(0, &[buf])?;
    file.extent()
}
