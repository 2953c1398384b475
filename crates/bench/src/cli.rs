//! The `reproduce` command line's moving parts: the one way to talk to
//! the terminal ([`say!`](crate::say) / [`die`]), the one flag parser
//! ([`Args::parse`] over [`Flag`] rows), and the [`Report`] contract the
//! report-producing subcommands share. The subcommand table itself lives
//! in `bin/reproduce.rs`.

use std::fmt::Display;

/// A line for the human at the terminal (stderr; stdout carries only
/// artifacts).
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => { eprintln!($($arg)*) };
}

/// Say why, then exit with `code` (2 = bad usage, 1 = the work failed).
pub fn die(code: i32, why: impl Display) -> ! {
    say!("{why}");
    std::process::exit(code)
}

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    Nothing,
    /// Any text; the `&str` is the metavar shown in usage.
    Text(&'static str),
    /// A non-negative integer.
    Int(&'static str),
    /// A byte size: plain bytes or `K`/`M`/`G` suffixed (binary units).
    Size(&'static str),
}

/// One row of a subcommand's flag spec.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub takes: Takes,
    pub help: &'static str,
}

impl Flag {
    /// `--name METAVAR` as usage prints it.
    pub fn usage(&self) -> String {
        match self.takes {
            Takes::Nothing => self.name.to_string(),
            Takes::Text(m) | Takes::Int(m) | Takes::Size(m) => format!("{} {m}", self.name),
        }
    }
}

/// Parse a human byte size: plain bytes, or `K`/`M`/`G` suffixed
/// (binary units, e.g. `256M` = 256 MiB).
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, unit) = match s.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        Some((i, _)) => s.split_at(i),
        None => (s, ""),
    };
    let n: u64 = digits.parse().ok()?;
    let shift = match unit.to_ascii_uppercase().as_str() {
        "" | "B" => 0,
        "K" | "KB" | "KIB" => 10,
        "M" | "MB" | "MIB" => 20,
        "G" | "GB" | "GIB" => 30,
        _ => return None,
    };
    n.checked_shl(shift)
}

/// A parsed invocation: flags (validated against their [`Takes`]) and the
/// positional words left over.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(&'static str, String)>,
    pub positional: Vec<String>,
}

impl Args {
    /// Parse `argv` against `spec`. Flags may appear in any position; the
    /// last occurrence wins. `Err` is a usage message (exit 2): an unknown
    /// flag, a missing value, or a value that does not parse as the
    /// flag's [`Takes`].
    pub fn parse(spec: &[Flag], argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(word) = it.next() {
            if !word.starts_with('-') {
                args.positional.push(word.clone());
                continue;
            }
            let flag = spec
                .iter()
                .find(|f| f.name == word)
                .ok_or_else(|| format!("unknown option '{word}'"))?;
            let value = match flag.takes {
                Takes::Nothing => String::new(),
                Takes::Text(m) | Takes::Int(m) | Takes::Size(m) => it
                    .next()
                    .ok_or_else(|| format!("{word} needs a {m} argument"))?
                    .clone(),
            };
            let valid = match flag.takes {
                Takes::Nothing | Takes::Text(_) => true,
                Takes::Int(_) => value.parse::<u64>().is_ok(),
                Takes::Size(_) => parse_byte_size(&value).is_some(),
            };
            if !valid {
                return Err(format!("{}: cannot parse '{value}'", flag.usage()));
            }
            args.flags.retain(|(name, _)| *name != flag.name);
            args.flags.push((flag.name, value));
        }
        Ok(args)
    }

    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The flag's value (empty for a [`Takes::Nothing`] flag).
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| *name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// A [`Takes::Int`] flag's value.
    pub fn int(&self, flag: &str) -> Option<u64> {
        self.get(flag).map(|v| v.parse().expect("validated by Args::parse"))
    }

    /// A [`Takes::Size`] flag's value in bytes.
    pub fn size(&self, flag: &str) -> Option<u64> {
        self.get(flag).map(|v| parse_byte_size(v).expect("validated by Args::parse"))
    }
}

/// What `reproduce`'s report-producing subcommands (`migrate`,
/// `pressure-bench`, `pressure-chaos`) have in common: a one-line summary
/// for the terminal, a JSON form, a contract.
pub trait Report: serde::Serialize {
    /// Where the JSON lands without `--out`; `None` = printed only.
    const DEFAULT_OUT: Option<&'static str>;

    /// One-line human summary for terminals.
    fn summary(&self) -> String;

    /// The contract the run must hold; a violation fails the subcommand.
    fn check(&self) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("65536"), Some(65536));
        assert_eq!(parse_byte_size("4k"), Some(4096));
        assert_eq!(parse_byte_size("256M"), Some(256 << 20));
        assert_eq!(parse_byte_size("1GiB"), Some(1 << 30));
        assert_eq!(parse_byte_size("12parsecs"), None);
        assert_eq!(parse_byte_size(""), None);
    }
}
