//! The line budget: every crate under `crates/` measures exactly its row
//! of `LINES.md`. A crate's non-test lines are the lines of each `src`
//! file above its first `#[cfg(test)]`; its code lines are those of them
//! that are neither blank nor a `//` comment. A crate over its row fails,
//! and so does one under it: a change that shrinks a crate lowers its row
//! in the same diff, so the lines it freed are no slack for the next
//! change to spend. The test prints the measured table in `LINES.md`'s
//! own layout, so either edit copies its row.
//!
//! Run it alone with `cargo test --test line_budget -- --nocapture`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Non-test lines and code lines of one crate.
type Count = (usize, usize);

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn count_file(text: &str) -> Count {
    let lines = text.lines().map(str::trim_start);
    let non_test: Vec<&str> = lines
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .collect();
    let code = non_test
        .iter()
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count();
    (non_test.len(), code)
}

/// The measured count of every crate, by directory name.
fn measure(root: &Path) -> BTreeMap<String, Count> {
    let mut crates = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("a crates directory") {
        let dir = entry.expect("readable directory entry").path();
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let mut total = (0, 0);
        for file in files {
            let (lines, code) = count_file(&fs::read_to_string(&file).expect("readable source"));
            total = (total.0 + lines, total.1 + code);
        }
        let name = dir.file_name().expect("a crate name").to_string_lossy();
        crates.insert(name.into_owned(), total);
    }
    crates
}

/// The rows of `LINES.md`: `| crate | non-test lines | code lines |`.
fn budget(text: &str) -> BTreeMap<String, Count> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if let [_, name, lines, code, _] = cells[..] {
            let name = name.trim_matches('`');
            if let (Ok(lines), Ok(code)) = (lines.parse(), code.parse()) {
                assert!(
                    rows.insert(name.to_owned(), (lines, code)).is_none(),
                    "two rows for {name}"
                );
            }
        }
    }
    rows
}

#[test]
fn every_crate_is_within_its_line_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let measured = measure(root);
    let budget = budget(&fs::read_to_string(root.join("LINES.md")).expect("a LINES.md"));

    println!("| crate | non-test lines | code lines |\n|---|---:|---:|");
    for (name, (lines, code)) in &measured {
        println!("| `{name}` | {lines} | {code} |");
    }
    let mut faults = Vec::new();
    for (name, &(lines, code)) in &measured {
        match budget.get(name) {
            None => faults.push(format!("{name} has no row in LINES.md")),
            Some(&(max_lines, max_code)) if lines > max_lines || code > max_code => faults.push(format!(
                "{name}: {lines} non-test and {code} code lines, over its row ({max_lines}, {max_code})"
            )),
            Some(&(max_lines, max_code)) if (lines, code) != (max_lines, max_code) => faults.push(format!(
                "{name}: {lines} non-test and {code} code lines, under its row ({max_lines}, {max_code}): lower the row"
            )),
            Some(_) => {}
        }
    }
    for name in budget.keys().filter(|name| !measured.contains_key(*name)) {
        faults.push(format!("LINES.md has a row for {name}, which is no crate"));
    }
    assert!(
        faults.is_empty(),
        "LINES.md and the measured table disagree:\n{}",
        faults.join("\n")
    );
}
