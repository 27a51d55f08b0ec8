#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! Implementation of the `boxagg` command-line tool.
//!
//! Builds, queries, updates and inspects *persistent* simple box-sum
//! indexes (corner reduction over BA-trees in a file-backed page store).
//! All metadata — geometry, space bounds, corner-tree roots — lives in
//! the store's page-0 superblock, published as named roots
//! (`corner/<mask>`), so an index file is self-describing and updates
//! commit crash-atomically through the write-ahead log. The binary in
//! `main.rs` is a thin wrapper around [`parse_flags`] and [`commands`].

pub mod commands;

use std::collections::HashMap;

/// Parses the `--flag value` pairs that follow `boxagg CMD INDEX`
/// against the flags `known` to the command. A flag it does not know,
/// one given twice, one with no value (at the end of the line, or
/// followed by another `--flag`) and a stray word are each refused by
/// name, never ignored.
pub fn parse_flags<'a>(
    args: &'a [String],
    known: &[&str],
) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut flags = HashMap::new();
    let mut rest = args.iter();
    while let Some(name) = rest.next() {
        if !name.starts_with("--") {
            return Err(format!("unexpected argument {name:?}"));
        }
        if !known.contains(&name.as_str()) {
            return Err(format!("unknown flag {name}"));
        }
        let value = match rest.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => return Err(format!("{name} needs a value")),
        };
        if flags.insert(name.as_str(), value.as_str()).is_some() {
            return Err(format!("{name} is given twice"));
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUILD: &[&str] = &["--csv", "--space", "--page-size"];

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn known_flags_parse_to_their_values() {
        let a = args("--csv in.csv --space 0,1,0,1 --page-size 512");
        let flags = parse_flags(&a, BUILD).unwrap();
        assert_eq!(flags.len(), 3);
        assert_eq!(flags["--page-size"], "512");
        assert_eq!(flags["--space"], "0,1,0,1");
        // A negative coordinate is a value, not a flag.
        let a = args("--box -1,2,-3,4");
        assert_eq!(parse_flags(&a, &["--box"]).unwrap()["--box"], "-1,2,-3,4");
        assert!(parse_flags(&[], &[]).unwrap().is_empty());
    }

    #[test]
    fn unknown_valueless_repeated_and_stray_arguments_are_refused() {
        for (line, want) in [
            ("--csv in.csv --page-sise 512", "unknown flag --page-sise"),
            ("--csv in.csv --page-size", "--page-size needs a value"),
            ("--page-size --csv in.csv", "--page-size needs a value"),
            ("--csv a.csv --csv b.csv", "--csv is given twice"),
            ("--csv in.csv extra", "unexpected argument \"extra\""),
        ] {
            assert_eq!(parse_flags(&args(line), BUILD).unwrap_err(), want, "{line}");
        }
        // A flag another command takes is unknown to this one, and so
        // is a retired knob.
        let serve = &["--listen", "--max-connections"];
        let err = parse_flags(&args("--page-size 512"), serve).unwrap_err();
        assert_eq!(err, "unknown flag --page-size");
        let err = parse_flags(&args("--threads 4"), serve).unwrap_err();
        assert_eq!(err, "unknown flag --threads");
    }
}
