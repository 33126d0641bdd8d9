//! The tier-1 goldens' bless-or-diff step.
//!
//! Each golden test renders its whole record as text and hands it to
//! [`check`] with the committed file's path. `BLESS=1` rewrites the file
//! instead of comparing; a change meant to keep the record must pass
//! without it.

/// Compare `got` against the file at `path` line by line (or rewrite the
/// file under `BLESS=1`), failing with every differing line pair.
pub fn check(path: &str, got: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} (BLESS=1): {e}"));
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} records differ from {path}:\n{}",
        diffs.len(),
        want.lines().count(),
        diffs.join("\n")
    );
}
