//! Machine-readable lint report (`lint-report.json`).
//!
//! Hand-rolled JSON rendering — the build environment is offline, so no
//! serde. The schema is intentionally small and stable:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     {"path": "...", "line": 1, "rule": "...", "message": "...",
//!      "chain": ["...", "..."]}
//!   ],
//!   "summary": {"total": 2, "by_rule": {"static-lock-rank": 2}},
//!   "count": {"pagestore": {"product": 1, "test": 2, "comment": 3, "pub_fn": 4}}
//! }
//! ```
//!
//! `count` — one [`Counts`] per crate and per directory inside a
//! crate's `src/` — is present only when the run counted lines
//! (`--count`).

use std::collections::BTreeMap;

use crate::{Counts, FileFinding};

/// Renders findings, and the line counts when given, as the
/// `lint-report.json` document.
pub fn render(findings: &[FileFinding], count: Option<&BTreeMap<String, Counts>>) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"path\": ");
        push_str_json(&mut out, &f.path.display().to_string());
        out.push_str(", \"line\": ");
        out.push_str(&f.finding.line.to_string());
        out.push_str(", \"rule\": ");
        push_str_json(&mut out, f.finding.rule);
        out.push_str(", \"message\": ");
        push_str_json(&mut out, &f.finding.message);
        out.push_str(", \"chain\": [");
        for (j, link) in f.finding.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_str_json(&mut out, link);
        }
        out.push_str("]}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {\"total\": ");
    out.push_str(&findings.len().to_string());
    out.push_str(", \"by_rule\": {");
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.finding.rule).or_default() += 1;
    }
    for (i, (rule, n)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_json(&mut out, rule);
        out.push_str(": ");
        out.push_str(&n.to_string());
    }
    out.push_str("}}");
    if let Some(count) = count {
        out.push_str(",\n  \"count\": {");
        for (i, (name, c)) in count.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            push_str_json(&mut out, name);
            out.push_str(&format!(
                ": {{\"product\": {}, \"test\": {}, \"comment\": {}, \"pub_fn\": {}}}",
                c.product, c.test, c.comment, c.pub_fn
            ));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Appends `s` as a JSON string literal.
fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use std::path::PathBuf;

    #[test]
    fn renders_escaped_findings_and_summary() {
        let mut f = Finding::new(3, "static-lock-rank", "acquires \"SHARD\"\nunder PAGER");
        f.chain = vec![
            "commit (buffer.rs:100)".into(),
            "helper (buffer.rs:50)".into(),
        ];
        let findings = vec![
            FileFinding {
                path: PathBuf::from("crates/pagestore/src/buffer.rs"),
                finding: f,
            },
            FileFinding {
                path: PathBuf::from("a.rs"),
                finding: Finding::new(1, "unwrap", "m"),
            },
        ];
        let json = render(&findings, None);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\\\"SHARD\\\"\\nunder"), "{json}");
        assert!(json.contains("\"chain\": [\"commit (buffer.rs:100)\", \"helper (buffer.rs:50)\"]"));
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"static-lock-rank\": 1"));
        assert!(json.contains("\"unwrap\": 1"));
    }

    #[test]
    fn empty_report_has_no_rule_keys() {
        let json = render(&[], None);
        assert!(json.contains("\"findings\": [],"));
        assert!(!json.contains("\"rule\":"), "{json}");
        assert!(json.contains("\"total\": 0"));
        assert!(!json.contains("\"count\""), "{json}");
    }

    #[test]
    fn counts_render_per_crate_and_directory() {
        let c = Counts {
            product: 10,
            test: 5,
            comment: 3,
            pub_fn: 2,
        };
        let count = BTreeMap::from([
            ("pagestore".to_string(), c),
            ("pagestore/src/buffer".to_string(), c),
        ]);
        let json = render(&[], Some(&count));
        let row = "{\"product\": 10, \"test\": 5, \"comment\": 3, \"pub_fn\": 2}";
        assert!(json.contains(&format!("\"pagestore\": {row},")), "{json}");
        assert!(json.contains(&format!("\"pagestore/src/buffer\": {row}\n  }}\n}}")));
        assert!(!json.contains("\"rule\":"), "{json}");
    }
}
