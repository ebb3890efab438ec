//! A line diff: a pinned-text test's failure shows what moved.

/// A line diff by longest common subsequence: every line of `a` and `b`,
/// prefixed `-` (only in `a`), `+` (only in `b`) or ` ` (in both).
#[must_use]
pub fn line_diff(a: &str, b: &str) -> String {
    let a: Vec<&str> = a.lines().collect();
    let b: Vec<&str> = b.lines().collect();
    // lcs[i][j]: LCS length of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            out += &format!(" {}\n", a[i]);
            i += 1;
            j += 1;
        } else if i < a.len() && (j == b.len() || lcs[i + 1][j] >= lcs[i][j + 1]) {
            out += &format!("-{}\n", a[i]);
            i += 1;
        } else {
            out += &format!("+{}\n", b[j]);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_diff_marks_changed_lines() {
        assert_eq!(
            line_diff("a\nb\nc\n", "a\nB\nc\nd\n"),
            " a\n-b\n+B\n c\n+d\n"
        );
        assert_eq!(line_diff("same\n", "same\n"), " same\n");
    }
}
