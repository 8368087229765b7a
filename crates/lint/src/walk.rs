//! Workspace discovery and source-file walking.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "third_party", ".git", "fixtures"];

/// Whether `dir` holds a `Cargo.toml` that declares `[workspace]`.
fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Ascends from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`; returns `start` itself if none is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        if is_workspace_root(&dir) {
            return dir;
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

/// Collects every `.rs` file under `root` (sorted, repo-relative with `/`
/// separators), skipping build output, vendored code, lint fixtures, and
/// nested workspaces (packages with a `[workspace]` of their own, such as
/// a standalone benchmark, are separate projects).
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    visit(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') || is_workspace_root(&path) {
                continue;
            }
            visit(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here);
        assert!(root.join("Cargo.toml").exists());
        assert!(root.ends_with("repo") || root.join("crates").exists());
    }

    #[test]
    fn collects_own_sources_skipping_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect_rs_files(here).expect("walk lint crate");
        assert!(files.iter().any(|f| f == "src/lexer.rs"));
        assert!(!files.iter().any(|f| f.contains("fixtures/")));
    }

    #[test]
    fn skips_nested_workspaces() {
        let root = std::env::temp_dir().join(format!("dwv-lint-walk-{}", std::process::id()));
        let nested = root.join("bench");
        fs::create_dir_all(nested.join("src")).expect("temp dirs");
        fs::create_dir_all(root.join("src")).expect("temp dirs");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("root manifest");
        fs::write(root.join("src/lib.rs"), "").expect("root source");
        fs::write(nested.join("Cargo.toml"), "[package]\n[workspace]\n").expect("nested manifest");
        fs::write(nested.join("src/main.rs"), "").expect("nested source");
        let files = collect_rs_files(&root).expect("walk temp workspace");
        let _ = fs::remove_dir_all(&root);
        assert_eq!(files, vec!["src/lib.rs".to_string()]);
    }
}
