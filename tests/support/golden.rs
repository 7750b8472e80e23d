//! Golden-file comparison shared by the golden tests: each renders
//! its output and hands it to [`check_golden`], which compares it
//! with a file under `tests/golden/` or, with `AAOD_BLESS` set,
//! rewrites that file.

use std::path::PathBuf;

/// `tests/golden/` at the repository root (the tests compile from
/// `crates/bench`, two levels down).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Compares `got` against the golden file `name` under `tests/golden/`,
/// or rewrites it when `AAOD_BLESS` is set. On mismatch, panics with
/// the first differing line.
///
/// # Panics
///
/// Panics if the golden is missing or differs from `got`.
pub fn check_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("AAOD_BLESS").is_some() {
        let dir = path.parent().expect("a golden file has a directory");
        std::fs::create_dir_all(dir).expect("create the golden directory");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with `AAOD_BLESS=1 cargo test`",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let (line_no, got_line, want_line) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| (i + 1, g.to_string(), w.to_string()))
        .unwrap_or_else(|| {
            (
                got.lines().count().min(want.lines().count()) + 1,
                format!("<{} lines>", got.lines().count()),
                format!("<{} lines>", want.lines().count()),
            )
        });
    panic!(
        "output drifted from golden {} at line {line_no}:\n  got:  {got_line}\n  want: {want_line}\n\
         If the change is intentional, re-bless with `AAOD_BLESS=1 cargo test` and commit the diff.",
        path.display()
    );
}
