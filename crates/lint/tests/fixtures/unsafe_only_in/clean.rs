//! Fixture: `unsafe` only as prose. An unsafe block in this doc comment,
//! `unsafe { x }` in a string and identifiers that merely contain the
//! word are not the keyword.

/* unsafe fn in a block comment */
fn f(unsafe_cell_count: usize) -> usize {
    let s = "unsafe { raw() }";
    let r = r#"unsafe impl Send"#;
    // unsafe trait in a line comment
    unsafe_cell_count + s.len() + r.len()
}
