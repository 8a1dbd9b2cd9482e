//! Findings, reports, and deterministic rendering.
//!
//! The JSON report is a regression artifact: it contains no absolute
//! paths, no timestamps, and is fully sorted, so repeated runs (under
//! any environment, including any `RRAM_FTT_THREADS`) produce
//! byte-identical output.

use std::collections::BTreeMap;

/// One policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Check id (`"D1"`, `"R1"`, …).
    pub check: &'static str,
    /// Workspace-relative `/`-separated path (empty for workspace-level
    /// findings).
    pub file: String,
    /// 1-based line, or 0 for whole-file / workspace findings.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Sort key: file, line, check, message.
    fn key(&self) -> (&str, usize, &str, &str) {
        (&self.file, self.line, self.check, &self.message)
    }
}

/// The result of a lint run.
#[derive(Debug)]
pub struct Report {
    /// Sorted, deduplicated findings.
    pub findings: Vec<Finding>,
    /// Sorted, deduplicated warnings (stale suppressions — never affect
    /// the exit code).
    pub warnings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Ids of the checks that ran (sorted).
    pub checks: Vec<&'static str>,
}

impl Report {
    /// Build a report from raw findings (sorts + dedups), no warnings.
    pub fn new(
        findings: Vec<Finding>,
        files_scanned: usize,
        checks: Vec<&'static str>,
    ) -> Self {
        Report::with_warnings(findings, Vec::new(), files_scanned, checks)
    }

    /// Build a report from raw findings and warnings (sorts + dedups
    /// both).
    pub fn with_warnings(
        mut findings: Vec<Finding>,
        mut warnings: Vec<Finding>,
        files_scanned: usize,
        mut checks: Vec<&'static str>,
    ) -> Self {
        findings.sort_by(|a, b| a.key().cmp(&b.key()));
        findings.dedup();
        warnings.sort_by(|a, b| a.key().cmp(&b.key()));
        warnings.dedup();
        checks.sort_unstable();
        Report {
            findings,
            warnings,
            files_scanned,
            checks,
        }
    }

    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-check finding counts (every check present, zero or not).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            self.checks.iter().map(|c| (*c, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.check).or_insert(0) += 1;
        }
        counts
    }

    /// Deterministic machine-readable JSON (sorted findings, sorted
    /// counts, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 2,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(c));
        }
        out.push_str("],\n");
        out.push_str("  \"counts\": {");
        for (i, (c, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(c), n));
        }
        out.push_str("},\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"check\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.check),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"check\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(w.check),
                json_str(&w.file),
                w.line,
                json_str(&w.message)
            ));
        }
        if !self.warnings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable diagnostics, one `check file:line: message` per
    /// finding, plus a summary line.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            if f.file.is_empty() {
                out.push_str(&format!("{} workspace: {}\n", f.check, f.message));
            } else if f.line == 0 {
                out.push_str(&format!("{} {}: {}\n", f.check, f.file, f.message));
            } else {
                out.push_str(&format!(
                    "{} {}:{}: {}\n",
                    f.check, f.file, f.line, f.message
                ));
            }
        }
        for w in &self.warnings {
            if w.file.is_empty() {
                out.push_str(&format!("warning[{}] workspace: {}\n", w.check, w.message));
            } else if w.line == 0 {
                out.push_str(&format!("warning[{}] {}: {}\n", w.check, w.file, w.message));
            } else {
                out.push_str(&format!(
                    "warning[{}] {}:{}: {}\n",
                    w.check, w.file, w.line, w.message
                ));
            }
        }
        let counts = self.counts();
        let summary: Vec<String> = counts.iter().map(|(c, n)| format!("{c}={n}")).collect();
        out.push_str(&format!(
            "ftt-lint: {} finding(s), {} warning(s) across {} file(s) [{}]\n",
            self.findings.len(),
            self.warnings.len(),
            self.files_scanned,
            summary.join(" ")
        ));
        out
    }
}

/// JSON string escaping (control chars, quotes, backslashes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(check: &'static str, file: &str, line: usize, msg: &str) -> Finding {
        Finding {
            check,
            file: file.into(),
            line,
            message: msg.into(),
        }
    }

    #[test]
    fn report_sorts_and_dedups() {
        let r = Report::new(
            vec![
                f("P1", "b.rs", 9, "x"),
                f("D1", "a.rs", 2, "y"),
                f("P1", "b.rs", 9, "x"),
            ],
            3,
            vec!["P1", "D1"],
        );
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.checks, vec!["D1", "P1"]);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let r = Report::new(vec![f("F1", "a.rs", 1, "bad \"cmp\"\n")], 1, vec!["F1"]);
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\"cmp\\\"\\n"));
        assert!(a.contains("\"counts\": {\"F1\": 1}"));
    }

    #[test]
    fn clean_report_renders_empty_array() {
        let r = Report::new(vec![], 5, vec!["P1"]);
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(r.to_human().contains("0 finding(s)"));
    }
}
