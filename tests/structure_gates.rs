//! The structure gates in `structure_gates.tsv`: each row holds one
//! structural decision (a deleted symbol stays deleted, one path stays
//! one path), and this test fails on the first row the tree breaks.
//!
//! Patterns are matched by `grep -E` itself, so each keeps the meaning it
//! had as a shell gate. The "text before the first `#[cfg(test)]` line"
//! of a file is copied into a scratch directory first, and grep reads the
//! copies.

use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// One row of the table.
struct Gate {
    kind: String,
    scope: String,
    pattern: String,
    reason: String,
    pr: String,
}

fn gates() -> Vec<Gate> {
    let table = std::fs::read_to_string(Path::new(ROOT).join("structure_gates.tsv")).unwrap();
    let rows = table
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    rows.map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
        [kind, scope, pattern, reason, pr] => Gate {
            kind: kind.into(),
            scope: scope.into(),
            pattern: pattern.into(),
            reason: reason.into(),
            pr: pr.into(),
        },
        _ => panic!("not five tab-separated columns: {line}"),
    })
    .collect()
}

/// Does `path` match `glob` (`*` within a component, `**` any number of
/// components)?
fn glob_matches(glob: &str, path: &str) -> bool {
    fn component(glob: &[u8], name: &[u8]) -> bool {
        match glob.split_first() {
            None => name.is_empty(),
            Some((b'*', rest)) => (0..=name.len()).any(|i| component(rest, &name[i..])),
            Some((c, rest)) => name.first() == Some(c) && component(rest, &name[1..]),
        }
    }
    fn components(glob: &[&str], path: &[&str]) -> bool {
        match (glob.split_first(), path.split_first()) {
            (None, _) => path.is_empty(),
            (Some((&"**", rest)), _) => (0..=path.len()).any(|i| components(rest, &path[i..])),
            (Some(_), None) => false,
            (Some((g, rest)), Some((p, tail))) => {
                component(g.as_bytes(), p.as_bytes()) && components(rest, tail)
            }
        }
    }
    components(
        &glob.split('/').collect::<Vec<_>>(),
        &path.split('/').collect::<Vec<_>>(),
    )
}

/// Every regular file under `dir` (symlinks not followed), as paths
/// relative to the root.
fn walk(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(Path::new(ROOT).join(dir)) else {
        return;
    };
    for entry in entries.map(Result::unwrap) {
        let path = dir.join(entry.file_name());
        let kind = entry.file_type().unwrap();
        if kind.is_dir() {
            walk(&path, out);
        } else if kind.is_file() {
            out.push(path.to_str().unwrap().to_string());
        }
    }
}

/// The files a scope names, sorted.
fn files(scope: &str) -> Vec<String> {
    let (excludes, includes): (Vec<&str>, Vec<&str>) =
        scope.split(' ').partition(|g| g.starts_with('!'));
    let mut out = Vec::new();
    for glob in includes {
        let base: PathBuf = glob.split('/').take_while(|c| !c.contains('*')).collect();
        let mut found = Vec::new();
        if Path::new(ROOT).join(&base).is_file() {
            found.push(base.to_str().unwrap().to_string());
        } else {
            walk(&base, &mut found);
        }
        found.retain(|f| {
            glob_matches(glob, f) && !excludes.iter().any(|x| glob_matches(&x[1..], f))
        });
        out.extend(found);
    }
    out.sort();
    out.dedup();
    out
}

/// The text `sed '/#\[cfg(test)\]/,$d'` leaves: every line before the
/// first one that mentions `#[cfg(test)]`.
fn before_tests(text: &str) -> String {
    text.split_inclusive('\n')
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .collect()
}

/// `grep -nE pattern` over `files` under `dir`: the matching lines, each
/// as `file:line:text`, and each file's count of them.
fn grep(pattern: &str, dir: &Path, files: &[String]) -> (String, Vec<usize>) {
    let run = |flag: &str| {
        let out = Command::new("grep")
            .args([flag, "-HE", "--", pattern])
            .args(files)
            .current_dir(dir)
            .output()
            .expect("grep runs");
        assert!(
            out.status.code().is_some_and(|c| c <= 1),
            "grep -E {pattern}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let counts = run("-c")
        .lines()
        .map(|l| l.rsplit(':').next().unwrap().parse().unwrap())
        .collect();
    (run("-n"), counts)
}

#[test]
fn the_tree_keeps_every_structure_gate() {
    let root = Path::new(ROOT);
    let cut = std::env::temp_dir().join(format!("eth-structure-gates-{:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cut);
    let gates = gates();
    assert!(gates.len() >= 24, "the table lost rows: {}", gates.len());
    let mut broken = Vec::new();
    for gate in &gates {
        let Gate {
            kind,
            scope,
            pattern,
            reason,
            pr,
        } = gate;
        let why = format!("{kind} `{pattern}` in {scope} ({reason}; PR {pr})");
        if kind == "absent" {
            if root.join(scope).exists() {
                broken.push(format!("{why}: {scope} exists"));
            }
            continue;
        }
        let files = files(scope);
        assert!(!files.is_empty(), "{why}: the scope names no file");
        let dir = if kind == "forbid-all" { root } else { &cut };
        if kind != "forbid-all" {
            for file in &files {
                let text =
                    String::from_utf8_lossy(&std::fs::read(root.join(file)).unwrap()).into_owned();
                std::fs::create_dir_all(cut.join(file).parent().unwrap()).unwrap();
                std::fs::write(cut.join(file), before_tests(&text)).unwrap();
            }
        }
        if let Some(max) = kind.strip_prefix("lines<=") {
            let max: usize = max.parse().unwrap();
            for file in &files {
                let lines = std::fs::read_to_string(cut.join(file))
                    .unwrap()
                    .matches('\n')
                    .count();
                if lines > max {
                    broken.push(format!("{why}: {file} has {lines} lines before its tests"));
                }
            }
            continue;
        }
        let (hits, counts) = grep(pattern, dir, &files);
        match kind.strip_prefix("count=") {
            Some(want) => {
                let want: usize = want.parse().unwrap();
                if counts.iter().any(|&n| n != want) {
                    broken.push(format!(
                        "{why}: counted {counts:?}, want {want} each\n{hits}"
                    ));
                }
            }
            None if ["forbid", "forbid-all"].contains(&kind.as_str()) => {
                if !hits.is_empty() {
                    broken.push(format!("{why}:\n{hits}"));
                }
            }
            None => panic!("unknown kind {kind:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&cut);
    assert!(
        broken.is_empty(),
        "{} structure gate(s) broken:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

#[test]
fn a_glob_matches_what_find_would() {
    let m = glob_matches;
    assert!(m("crates/**/*.rs", "crates/core/src/lib.rs"));
    assert!(m("crates/**", "crates/core/Cargo.toml"));
    assert!(m("**/tests.rs", "crates/core/src/harness/tests.rs"));
    assert!(m("**/tests/**", "crates/core/tests/serve.rs"));
    assert!(!m("**/tests/**", "crates/core/src/tests.rs"));
    assert!(m(
        "crates/eth-render/src/ray/*.rs",
        "crates/eth-render/src/ray/bvh.rs"
    ));
    assert!(!m(
        "crates/eth-render/src/ray/*.rs",
        "crates/eth-render/src/ray/x/bvh.rs"
    ));
    assert!(!m("crates/**/*.rs", "crates/core/Cargo.toml"));
    assert_eq!(before_tests("a\n#[cfg(test)]\nb\n"), "a\n");
    assert_eq!(before_tests("a\nb"), "a\nb");
}
