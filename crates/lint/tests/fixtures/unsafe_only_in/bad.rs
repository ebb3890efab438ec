//! Fixture: `unsafe` in every position it can take. Linted as
//! `crates/types/src/crc.rs`, only the body of `fold` is allowed; the
//! test module at the bottom is library source too and is flagged.

unsafe fn raw(p: *const u8) -> u8 {
    *p
}

struct Token;
unsafe impl Send for Token {}
unsafe trait Marker {}

fn fold(data: &[u8]) -> Option<u32> {
    #[target_feature(enable = "sse2")]
    unsafe fn run(data: &[u8]) -> u32 {
        data.len() as u32
    }
    // SAFETY: sse2 is baseline on x86-64.
    Some(unsafe { run(data) })
}

fn not_fold(data: &[u8]) -> u8 {
    unsafe { raw(data.as_ptr()) }
}

#[cfg(test)]
mod tests {
    fn t() {
        let _ = unsafe { super::raw([1u8].as_ptr()) };
    }
}
