//! Source line counts per crate: non-blank Rust lines under `crates/*/src`
//! outside `#[cfg(test)]` items, with the vendored shims under `vendor/*`
//! counted separately.

use std::path::Path;

/// The crates the per-layer `<crate>.loc` metrics name.
pub const CRATES: [&str; 12] = [
    "graph",
    "sampler",
    "walker",
    "embedding",
    "dyngraph",
    "ingest",
    "persist",
    "core",
    "server",
    "eval",
    "metrics",
    "bench",
];

/// Non-blank lines of `source` outside `#[cfg(test)]` items.
pub fn count_lines(source: &str) -> usize {
    let mut count = 0;
    let mut skipping = false;
    let mut depth = 0i64;
    let mut entered = false;
    for line in source.lines() {
        let t = line.trim();
        if skipping {
            for c in t.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            // A braceless item (`mod tests;`, `use ...;`) ends at its `;`.
            if (entered && depth <= 0) || (!entered && t.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if t == "#[cfg(test)]" {
            skipping = true;
            depth = 0;
            entered = false;
            continue;
        }
        if !t.is_empty() {
            count += 1;
        }
    }
    count
}

fn count_dir(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            if p.is_dir() {
                count_dir(p)
            } else if p.extension().is_some_and(|e| e == "rs") {
                std::fs::read_to_string(p).map_or(0, |s| count_lines(&s))
            } else {
                0
            }
        })
        .sum()
}

/// `(metric name, lines)` for every crate in [`CRATES`], then `vendor.loc`.
pub fn line_counts(root: &Path) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = CRATES
        .iter()
        .map(|c| {
            (
                format!("{c}.loc"),
                count_dir(&root.join("crates").join(c).join("src")),
            )
        })
        .collect();
    let vendor = std::fs::read_dir(root.join("vendor"))
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| count_dir(&e.path().join("src")))
                .sum()
        })
        .unwrap_or(0);
    out.push(("vendor.loc".to_string(), vendor));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_and_blank_lines_are_not_counted() {
        let src = "\
//! docs
fn a() {
    let x = 1;

}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert!(true);
    }
}

#[cfg(test)]
mod more;
fn b() {}
";
        // `//! docs`, `fn a() {`, `let x = 1;`, `}`, `fn b() {}`.
        assert_eq!(count_lines(src), 5);
    }
}
