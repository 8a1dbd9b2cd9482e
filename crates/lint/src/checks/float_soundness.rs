//! **F1 — float soundness.**
//!
//! Two families of silent numeric hazards:
//!
//! 1. **Equality on floats.** `==` / `!=` against a float literal (or an
//!    `f32::` / `f64::` associated constant) is flagged everywhere —
//!    library *and* test code — except comparisons against exact zero
//!    when `allow_zero_eq = true` (the default configuration): the
//!    sparsity skip gate and pruning masks *depend* on IEEE-exact
//!    `x == 0.0` semantics, which are well-defined, while equality
//!    against any other literal silently depends on rounding. Use the
//!    epsilon helpers (`nn::metrics::approx_eq*`) instead. Comparisons
//!    against `f32::NAN` / `f64::NAN` are always findings (they are
//!    always false).
//! 2. **Narrowing casts on conductance/index paths.** In files listed
//!    under `cast_paths`, `as f32` / `as usize` (configurable via
//!    `cast_ops`) outside test code requires a `// CAST-OK: <reason>`
//!    comment — these are exactly the places where the f64 master state
//!    and its f32 plane cache (DESIGN.md §6) may legally diverge.

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::SourceFile;

use super::{lookback, path_allowed, Check};

const MARKER: &str = "CAST-OK:";

/// Float-soundness check (see module docs).
pub struct FloatSoundness;

impl Check for FloatSoundness {
    fn id(&self) -> &'static str {
        "F1"
    }

    fn description(&self) -> &'static str {
        "no float ==/!= (except exact zero) and no unannotated narrowing casts on cast_paths"
    }

    fn check_file(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        if path_allowed(cfg, self.id(), &file.rel_path) {
            return;
        }
        let allow_zero = cfg.bool("checks.F1", "allow_zero_eq", true);
        let toks = &file.scan.tokens;

        for (i, tok) in toks.iter().enumerate() {
            if tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=") {
                if let Some(desc) = float_operand(toks, i, allow_zero) {
                    out.push(Finding {
                        check: self.id(),
                        file: file.rel_path.clone(),
                        line: tok.line,
                        message: format!(
                            "float `{}` against {desc}; use an epsilon/ULP helper \
                             (exact-zero compares are exempt by policy)",
                            tok.text
                        ),
                    });
                }
            }
        }

        // Narrowing casts, only on configured paths.
        let cast_paths = cfg.list("checks.F1", "cast_paths");
        let on_cast_path = cast_paths
            .iter()
            .any(|p| file.rel_path == *p || file.rel_path.starts_with(&format!("{p}/")));
        if !on_cast_path {
            return;
        }
        let mut cast_ops = cfg.list("checks.F1", "cast_ops");
        if cast_ops.is_empty() {
            cast_ops = vec!["f32".to_string(), "usize".to_string()];
        }
        let lb = lookback(cfg, self.id());
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind != TokenKind::Ident || tok.text != "as" {
                continue;
            }
            let Some(target) = toks.get(i + 1) else {
                continue;
            };
            if target.kind != TokenKind::Ident || !cast_ops.contains(&target.text) {
                continue;
            }
            if file.in_test_code(tok.line) {
                continue;
            }
            if marker_has_text(file, tok.line, lb) {
                continue;
            }
            out.push(Finding {
                check: self.id(),
                file: file.rel_path.clone(),
                line: tok.line,
                message: format!(
                    "narrowing `as {}` on a conductance/index path without a \
                     // CAST-OK: <reason> comment",
                    target.text
                ),
            });
        }
    }
}

/// `CAST-OK:` followed by a non-empty reason in a comment covering
/// `line` or one of the `lb` lines above it. A bare marker does not
/// count.
fn marker_has_text(file: &SourceFile, line: usize, lb: usize) -> bool {
    let lo = line.saturating_sub(lb);
    file.scan.comments.iter().any(|c| {
        let span = c.text.matches('\n').count();
        let covers = (lo..=line).any(|l| l >= c.line && l <= c.line + span);
        covers
            && c.text
                .find(MARKER)
                .is_some_and(|at| !c.text[at + MARKER.len()..].trim().is_empty())
    })
}

/// Is the literal text an exact zero (`0.0`, `0.`, `0f32`, `0e0`, …)?
fn is_zero_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let cleaned = cleaned
        .strip_suffix("f32")
        .or_else(|| cleaned.strip_suffix("f64"))
        .unwrap_or(&cleaned);
    let cleaned = cleaned.strip_suffix('.').unwrap_or(cleaned);
    cleaned.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

/// If the `==`/`!=` at `op` has a float operand that the policy flags,
/// describe it; `None` means the comparison is fine.
fn float_operand(toks: &[Token], op: usize, allow_zero: bool) -> Option<String> {
    // Literal on either side.
    for tok in [
        op.checked_sub(1).and_then(|i| toks.get(i)),
        toks.get(op + 1),
    ]
    .into_iter()
    .flatten()
    {
        if tok.kind == TokenKind::Float {
            // A leading unary minus does not change zeroness (-0.0 == 0.0).
            if allow_zero && is_zero_literal(&tok.text) {
                continue;
            }
            return Some(format!("the literal `{}`", tok.text));
        }
    }
    // `f32::CONST` / `f64::CONST` on either side.
    let before = op
        .checked_sub(3)
        .map(|base| (&toks[base], &toks[base + 1], &toks[base + 2]));
    let after = (toks.len() > op + 3).then(|| (&toks[op + 1], &toks[op + 2], &toks[op + 3]));
    for (ty, sep, konst) in [before, after].into_iter().flatten() {
        if (ty.text == "f32" || ty.text == "f64")
            && sep.text == "::"
            && konst.kind == TokenKind::Ident
        {
            return Some(format!("`{}::{}`", ty.text, konst.text));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::lib_file;

    fn run_cfg(cfg_text: &str, path: &str, src: &str) -> Vec<Finding> {
        let cfg = Config::parse(cfg_text).expect("cfg");
        let file = lib_file(path, "demo", src);
        let mut out = Vec::new();
        FloatSoundness.check_file(&file, &cfg, &mut out);
        out
    }

    fn run(src: &str) -> Vec<Finding> {
        run_cfg("[checks.F1]\n", "crates/demo/src/lib.rs", src)
    }

    #[test]
    fn flags_nonzero_literal_equality_both_sides() {
        let out = run("fn f(x: f64) -> bool { x == 1.0 || 0.5 != x }");
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn exact_zero_compare_is_exempt_by_default() {
        let out = run("fn f(x: f64) -> bool { x == 0.0 && x != -0.0 && x == 0. && x == 0f64 }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn zero_exemption_can_be_disabled() {
        let out = run_cfg(
            "[checks.F1]\nallow_zero_eq = false\n",
            "crates/demo/src/lib.rs",
            "fn f(x: f64) -> bool { x == 0.0 }",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nan_const_compare_is_flagged() {
        let out = run("fn f(x: f32) -> bool { x == f32::NAN }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("f32::NAN"));
    }

    #[test]
    fn int_equality_and_epsilon_compares_pass() {
        let out = run("fn f(n: usize, x: f64) -> bool { n == 3 && (x - 1.0).abs() < 1e-9 }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn casts_need_annotation_only_on_cast_paths() {
        let cfg = "[checks.F1]\ncast_paths = [\"crates/demo/src/plane.rs\"]\n";
        let bad = run_cfg(
            cfg,
            "crates/demo/src/plane.rs",
            "fn f(g: f64) -> f32 { g as f32 }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        let ok = run_cfg(
            cfg,
            "crates/demo/src/plane.rs",
            "fn f(g: f64) -> f32 {\n    // CAST-OK: plane cache is f32 by design\n    g as f32\n}",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bare = run_cfg(
            cfg,
            "crates/demo/src/plane.rs",
            "fn f(g: f64) -> f32 {\n    // CAST-OK:\n    g as f32\n}",
        );
        assert_eq!(bare.len(), 1, "a bare marker justifies nothing: {bare:?}");
        let off_path = run_cfg(
            cfg,
            "crates/demo/src/other.rs",
            "fn f(g: f64) -> f32 { g as f32 }",
        );
        assert!(off_path.is_empty(), "{off_path:?}");
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let out = run("// x == 1.5 would be wrong\nfn f() -> &'static str { \"a == 2.5\" }");
        assert!(out.is_empty(), "{out:?}");
    }
}
