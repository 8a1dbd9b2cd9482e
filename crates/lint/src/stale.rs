//! Stale-suppression detection (reported as *warnings* — they never
//! affect the exit code).
//!
//! A suppression that no longer suppresses anything is debt: it hides
//! the next real finding at that location and misleads readers about
//! which policies the code actually bends. Three kinds are detected:
//!
//! * **`stale-exclude`** — a `[lint] exclude` path that does not exist
//!   on disk.
//! * **`stale-allow`** — a `[checks.<ID>] allow` prefix that suppresses
//!   nothing: the check is *shadow-run* with its `allow` list stripped
//!   (per-file passes over the allowed files only, plus the workspace
//!   and semantic passes), and the entry is stale when no shadow
//!   finding falls under the prefix.
//! * **`stale-annotation`** — a `CAST-OK:` comment with no `as` cast
//!   inside its window: the enclosing comment run plus F1's `lookback`
//!   below it. The marker must open the comment's content — prose
//!   *mentioning* a marker does not count. (Stale panic-lint
//!   `#[expect]`s are rustc's `unfulfilled_lint_expectations`.)

use std::path::Path;

use crate::checks::{lookback, Check};
use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::model::{SourceFile, Workspace};
use crate::model2::SemanticModel;

/// Compute all stale-suppression warnings for a finished run.
pub(crate) fn stale_suppressions(
    root: &Path,
    ws: &Workspace,
    model: &SemanticModel,
    cfg: &Config,
    catalog: &[Box<dyn Check>],
    _findings: &[Finding],
) -> Vec<Finding> {
    let mut out = Vec::new();
    stale_excludes(root, cfg, &mut out);
    stale_allows(ws, model, cfg, catalog, &mut out);
    stale_annotations(ws, cfg, &mut out);
    out
}

fn stale_excludes(root: &Path, cfg: &Config, out: &mut Vec<Finding>) {
    for entry in cfg.list("lint", "exclude") {
        if !root.join(&entry).exists() {
            out.push(Finding {
                check: "stale-exclude",
                file: entry.clone(),
                line: 0,
                message: format!(
                    "`[lint] exclude` entry {entry:?} matches nothing on disk — remove it"
                ),
            });
        }
    }
}

fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

fn stale_allows(
    ws: &Workspace,
    model: &SemanticModel,
    cfg: &Config,
    catalog: &[Box<dyn Check>],
    out: &mut Vec<Finding>,
) {
    for check in catalog {
        let section = format!("checks.{}", check.id());
        let allows = cfg.list(&section, "allow");
        if allows.is_empty() {
            continue;
        }
        let shadow_cfg = cfg.without_key(&section, "allow");
        let mut shadow: Vec<Finding> = Vec::new();
        for file in &ws.files {
            if allows.iter().any(|p| under_prefix(&file.rel_path, p)) {
                check.check_file(file, &shadow_cfg, &mut shadow);
            }
        }
        check.check_workspace(ws, &shadow_cfg, &mut shadow);
        check.check_semantic(ws, model, &shadow_cfg, &mut shadow);
        for entry in &allows {
            let hit = shadow
                .iter()
                .any(|f| f.check == check.id() && under_prefix(&f.file, entry));
            if !hit {
                out.push(Finding {
                    check: "stale-allow",
                    file: String::new(),
                    line: 0,
                    message: format!(
                        "`[{section}] allow` entry {entry:?} suppresses no findings — remove it"
                    ),
                });
            }
        }
    }
}

const MARKER: &str = "CAST-OK:";

/// One comment run: consecutive comment lines merged, with the line of
/// every `CAST-OK:` annotation found at content-start inside it.
struct CommentRun {
    start: usize,
    end: usize,
    annotations: Vec<usize>,
}

fn comment_runs(file: &SourceFile) -> Vec<CommentRun> {
    let mut runs: Vec<CommentRun> = Vec::new();
    for c in &file.scan.comments {
        let span = c.text.matches('\n').count();
        let (start, end) = (c.line, c.line + span);
        let mut annotations = Vec::new();
        for (off, line_text) in c.text.split('\n').enumerate() {
            let content = line_text
                .trim_start_matches(|ch: char| matches!(ch, '/' | '*' | '!') || ch.is_whitespace());
            if content
                .strip_prefix(MARKER)
                .is_some_and(|reason| !reason.trim().is_empty())
            {
                annotations.push(start + off);
            }
        }
        match runs.last_mut() {
            // Adjacent comment lines merge into one run so a marker at
            // the top of a justification paragraph still reaches the
            // site below it.
            Some(last) if start <= last.end + 1 => {
                last.end = last.end.max(end);
                last.annotations.extend(annotations);
            }
            _ => runs.push(CommentRun {
                start,
                end,
                annotations,
            }),
        }
    }
    runs
}

fn stale_annotations(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    let lb = lookback(cfg, "F1");
    for file in &ws.files {
        let runs = comment_runs(file);
        if runs.iter().all(|r| r.annotations.is_empty()) {
            continue;
        }
        let casts: Vec<usize> = file
            .scan
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text == "as")
            .map(|t| t.line)
            .collect();
        for run in &runs {
            let (lo, hi) = (run.start, run.end + lb);
            if casts.iter().any(|&l| l >= lo && l <= hi) {
                continue;
            }
            for &line in &run.annotations {
                out.push(Finding {
                    check: "stale-annotation",
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "`{MARKER}` annotation justifies no site within its window — remove it"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Member;

    fn ws_of(src: &str) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members: vec![Member {
                name: "demo".into(),
                dir: "crates/demo".into(),
                manifest: String::new(),
            }],
            files: vec![crate::testsupport::lib_file(
                "crates/demo/src/lib.rs",
                "demo",
                src,
            )],
            docs: Default::default(),
        }
    }

    #[test]
    fn used_annotations_are_not_reported() {
        let ws = ws_of(
            "fn g(v: f64) -> u32 {\n    // CAST-OK: bounded by construction\n    v as u32\n}\n",
        );
        let cfg = Config::parse("").expect("cfg");
        let mut out = Vec::new();
        stale_annotations(&ws, &cfg, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn orphaned_annotation_is_reported() {
        let ws = ws_of(
            "// CAST-OK: this justified a cast that was refactored away\npub fn f() -> u8 { 0 }\n",
        );
        let cfg = Config::parse("").expect("cfg");
        let mut out = Vec::new();
        stale_annotations(&ws, &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("CAST-OK:"));
    }

    #[test]
    fn prose_mentioning_a_marker_is_not_an_annotation() {
        let ws = ws_of(
            "//! Checks use markers like CAST-OK: reasons to justify sites.\npub fn f() -> u8 { 0 }\n",
        );
        let cfg = Config::parse("").expect("cfg");
        let mut out = Vec::new();
        stale_annotations(&ws, &cfg, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_exclude_paths_are_reported() {
        let cfg = Config::parse("[lint]\nexclude = [\"no/such/dir\"]\n").expect("cfg");
        let mut out = Vec::new();
        stale_excludes(std::path::Path::new("/"), &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].check, "stale-exclude");
    }

    #[test]
    fn stale_and_live_allow_entries_are_distinguished() {
        // The D1 check forbids wall-clock reads in configured crates;
        // one allowed file actually contains one (live allow), the
        // other allow entry points at a clean path (stale).
        let file = crate::testsupport::lib_file(
            "crates/demo/src/lib.rs",
            "demo",
            "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members: vec![Member {
                name: "demo".into(),
                dir: "crates/demo".into(),
                manifest: String::new(),
            }],
            files: vec![file],
            docs: Default::default(),
        };
        let cfg = Config::parse(
            "[checks.D1]\ncrates = [\"demo\"]\nallow = [\"crates/demo/src/lib.rs\", \"crates/ghost\"]\n",
        )
        .expect("cfg");
        let model = SemanticModel::build(&ws);
        let catalog = crate::checks::catalog();
        let mut out = Vec::new();
        stale_allows(&ws, &model, &cfg, &catalog, &mut out);
        let stale: Vec<&Finding> = out.iter().filter(|f| f.check == "stale-allow").collect();
        assert_eq!(stale.len(), 1, "{out:?}");
        assert!(stale[0].message.contains("ghost"));
    }
}
