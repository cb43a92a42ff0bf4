//! Every test the documentation cites must exist.
//!
//! `docs/*.md` and `README.md` name tests in backticks, in three
//! shapes: `<module>::tests::<name>` (a unit test in `<module>.rs`),
//! `<test-file>::<name>` (an integration test in a `tests/<test-file>.rs`,
//! the `.rs` optional) and either of them with `{a, b}` in place of the
//! name. Each cited name must be a `fn` in a file of that name under
//! `crates/`, `tests/` or `examples/` — so renaming or deleting a test
//! without fixing the prose that cites it fails here.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The `.rs` files under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The names of the `fn`s defined in `src`.
fn fn_names(src: &str) -> BTreeSet<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = BTreeSet::new();
    for (i, _) in src.match_indices("fn ") {
        if src[..i].chars().next_back().is_some_and(ident) {
            continue; // the tail of a longer word
        }
        let name: String = src[i + 3..].chars().take_while(|&c| ident(c)).collect();
        if !name.is_empty() {
            names.insert(name);
        }
    }
    names
}

/// The inline code spans of a markdown file, fenced blocks dropped and
/// whitespace collapsed (a span may wrap across lines).
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let spans = prose.split('`').skip(1).step_by(2);
    spans
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// `name` or `{a, b}` as a list of names.
fn names_in(tail: &str) -> Vec<String> {
    let list = tail.strip_prefix('{').and_then(|t| t.strip_suffix('}'));
    let names = list.map_or_else(|| vec![tail], |l| l.split(',').collect());
    names.into_iter().map(|n| n.trim().to_string()).collect()
}

#[test]
fn every_test_cited_in_the_docs_names_a_fn() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // File stem -> fns, for every source file and for test files alone.
    let mut modules: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut test_files: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for path in &files {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let fns = fn_names(&fs::read_to_string(path).unwrap());
        let in_tests = path.parent().is_some_and(|p| p.ends_with("tests"));
        if in_tests {
            test_files
                .entry(stem.clone())
                .or_default()
                .extend(fns.clone());
        }
        modules.entry(stem).or_default().extend(fns);
    }

    let mut docs: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.push(root.join("README.md"));

    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in &docs {
        for span in code_spans(&fs::read_to_string(doc).unwrap()) {
            let parts: Vec<&str> = span.split("::").collect();
            let (fns, tail) = match parts[..] {
                [module, "tests", tail] => (modules.get(module), tail),
                [file, tail] => match test_files.get(file.trim_end_matches(".rs")) {
                    Some(fns) => (Some(fns), tail),
                    None => continue, // a path, not a test citation
                },
                _ => continue,
            };
            for name in names_in(tail) {
                checked += 1;
                if !fns.is_some_and(|f| f.contains(&name)) {
                    let doc = doc.strip_prefix(root).unwrap().display();
                    missing.push(format!("{doc}: `{span}` — no fn `{name}`"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "stale test citations:\n{}",
        missing.join("\n")
    );
    assert!(
        checked >= 20,
        "only {checked} citations found: is the parser blind?"
    );
}
