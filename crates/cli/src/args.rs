//! Minimal flag parser: positionals plus `--flag [value]` options.
//!
//! Hand-rolled (no external dependency): the surface is small and the error
//! messages stay domain-specific. Each command names the flags it reads; any
//! other `--flag` is an error, so a typo fails loudly instead of falling back
//! to a default.

use std::collections::HashMap;

/// Parsed command-line arguments: positional values and `--key value` pairs.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    positionals: Vec<String>,
    flags: HashMap<String, Option<String>>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] =
    &["update", "strict", "early", "approximate", "shard-only", "trace", "json"];

impl Parsed {
    /// Splits `argv` into positionals and flags, refusing any flag not in
    /// `known` (the flags the command reads).
    ///
    /// `--key value` binds a value unless `key` is a known boolean flag;
    /// `--key=value` always binds.
    pub fn parse(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut out = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(stripped) = a.strip_prefix("--") {
                let (key, inline) = match stripped.split_once('=') {
                    Some((k, v)) => (k, Some(v)),
                    None => (stripped, None),
                };
                if !known.contains(&key) {
                    let takes: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
                    let takes = if takes.is_empty() { "no flags".into() } else { takes.join(", ") };
                    return Err(format!("unknown flag --{key} (this command takes {takes})"));
                }
                if let Some(v) = inline {
                    out.flags.insert(key.to_string(), Some(v.to_string()));
                } else if BOOLEAN_FLAGS.contains(&key) {
                    out.flags.insert(key.to_string(), None);
                } else {
                    let v =
                        argv.get(i + 1).ok_or_else(|| format!("flag --{key} expects a value"))?;
                    if v.starts_with("--") {
                        return Err(format!("flag --{key} expects a value, got {v}"));
                    }
                    out.flags.insert(key.to_string(), Some(v.clone()));
                    i += 1;
                }
            } else {
                out.positionals.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// Positional argument at `idx`, or an error naming it.
    pub fn positional(&self, idx: usize, name: &str) -> Result<&str, String> {
        self.positionals
            .get(idx)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing <{name}> argument"))
    }

    /// All positionals.
    #[allow(dead_code)] // part of the parser's API surface; used in tests
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// True when the boolean flag was given.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// String value of a flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).and_then(|v| v.as_deref())
    }

    /// Parsed numeric value of a flag, with a default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let p = Parsed::parse(&argv("graph.tsv --k 5 --update out.bin"), &["k", "update"]).unwrap();
        assert_eq!(p.positional(0, "graph").unwrap(), "graph.tsv");
        assert_eq!(p.positional(1, "out").unwrap(), "out.bin");
        assert_eq!(p.get("k"), Some("5"));
        assert!(p.has("update"));
    }

    #[test]
    fn equals_syntax_binds() {
        let p = Parsed::parse(&argv("--omega=1e-6"), &["omega"]).unwrap();
        assert_eq!(p.get("omega"), Some("1e-6"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Parsed::parse(&argv("--k"), &["k"]).is_err());
        assert!(Parsed::parse(&argv("--k --update"), &["k", "update"]).is_err());
    }

    #[test]
    fn numeric_parsing_with_default() {
        let p = Parsed::parse(&argv("--k 7"), &["k"]).unwrap();
        assert_eq!(p.get_num("k", 10usize).unwrap(), 7);
        assert_eq!(p.get_num("missing", 10usize).unwrap(), 10);
        assert!(p.get_num::<usize>("k", 0).is_ok());
        let bad = Parsed::parse(&argv("--k x"), &["k"]).unwrap();
        assert!(bad.get_num::<usize>("k", 0).is_err());
    }

    #[test]
    fn missing_positional_is_named() {
        let p = Parsed::parse(&argv("only-one"), &[]).unwrap();
        let err = p.positional(1, "index").unwrap_err();
        assert!(err.contains("<index>"));
    }

    #[test]
    fn unknown_flags_are_named() {
        let err =
            Parsed::parse(&argv("g.rtkg --out t.rtki --sharsd 2"), &["out", "shards"]).unwrap_err();
        assert!(err.contains("unknown flag --sharsd"), "{err}");
        assert!(err.contains("--shards"), "{err}");
        let err = Parsed::parse(&argv("--aprox=1e-3"), &["approx"]).unwrap_err();
        assert!(err.contains("--aprox"), "{err}");
        let err = Parsed::parse(&argv("x --update"), &[]).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
    }
}
