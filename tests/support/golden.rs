//! The one golden-file rule, shared by every test that pins produced bytes
//! (included by path, so each test crate compiles its own copy and
//! `tests/data/` means the including package's directory).
//!
//! A golden is compared exactly. With `SARA_UPDATE_GOLDENS` set, the test
//! rewrites it instead; `scripts/rebaseline.sh` runs the whole suite that
//! way after an intentional change to simulated output.

use std::path::{Path, PathBuf};

/// `tests/data/NAME` of the package whose test includes this module; an
/// absolute NAME, a committed file outside `tests/data/`, is itself.
pub(crate) fn path(name: impl AsRef<Path>) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Compares `text` with the committed golden [`path`]`(name)`, or writes
/// `text` there when `SARA_UPDATE_GOLDENS` is set. A mismatch panics with
/// the first line that differs.
pub(crate) fn check(name: impl AsRef<Path>, text: &str) {
    let path = &path(name);
    if std::env::var_os("SARA_UPDATE_GOLDENS").is_some() {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let regenerate = format!(
        "if intentional, regenerate with SARA_UPDATE_GOLDENS=1 cargo test -p {} --test {} \
         (or scripts/rebaseline.sh for every pin)",
        env!("CARGO_PKG_NAME"),
        env!("CARGO_CRATE_NAME"),
    );
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e}\n{regenerate}", path.display()));
    if text == want {
        return;
    }
    let (mut got, mut committed) = (text.lines(), want.lines());
    for line in 1.. {
        match (got.next(), committed.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => panic!(
                "{} differs only in line endings\n{regenerate}",
                path.display()
            ),
            (a, b) => panic!(
                "{} drifted at line {line}:\n  produced:  {}\n  committed: {}\n{regenerate}",
                path.display(),
                a.unwrap_or("<end of output>"),
                b.unwrap_or("<end of file>"),
            ),
        }
    }
}
