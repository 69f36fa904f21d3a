//! A small flag parser (no external argument-parsing crate is available
//! offline): `--key value` pairs, `--flag` booleans, and positionals.

use std::collections::HashMap;

/// What one subcommand accepts: options that take a value and flags
/// that take none, each list space-separated and each name without its
/// leading `--`.
#[derive(Debug, Clone, Copy)]
pub struct Accepts {
    /// The subcommand's name, for error messages.
    pub command: &'static str,
    /// Options that consume the next token as their value.
    pub options: &'static str,
    /// Boolean flags.
    pub flags: &'static str,
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced for malformed or unknown arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments against what the command `accepts`: a
    /// listed flag takes no value, a listed option consumes the next
    /// token, and every other token is a positional.
    ///
    /// # Errors
    ///
    /// Fails on a `--name` the command does not accept, and when a
    /// value-taking option has no following token.
    pub fn parse(
        raw: impl IntoIterator<Item = String>,
        accepts: &Accepts,
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let listed = |names: &str| names.split_whitespace().any(|n| n == name);
                if listed(accepts.flags) {
                    out.flags.push(name.to_string());
                } else if listed(accepts.options) {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    out.options.insert(name.to_string(), value);
                } else {
                    return Err(ArgError(format!(
                        "unknown option --{name} for `typilus {}`",
                        accepts.command
                    )));
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// The positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// An option's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An option parsed to a type, with a default.
    ///
    /// # Errors
    ///
    /// Fails when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}"))),
        }
    }

    /// A required option.
    ///
    /// # Errors
    ///
    /// Fails when the option is missing.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("--{name} is required")))
    }

    /// Whether a boolean flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PREDICT: Accepts = Accepts {
        command: "predict",
        options: "model top epochs",
        flags: "check",
    };

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()), &PREDICT)
    }

    #[test]
    fn mixed_arguments() {
        let a = parse(&[
            "predict", "--model", "m.bin", "--top", "3", "--check", "file.py",
        ])
        .unwrap();
        assert_eq!(a.positionals(), &["predict", "file.py"]);
        assert_eq!(a.get("model"), Some("m.bin"));
        assert_eq!(a.get_parsed("top", 1usize).unwrap(), 3);
        assert!(a.has_flag("check"));
        assert!(!a.has_flag("verbose"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["predict"]).unwrap();
        assert_eq!(a.get_parsed("epochs", 12usize).unwrap(), 12);
        assert!(a.require("model").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--model"]).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse(&["--epochs", "many"]).unwrap();
        assert!(a.get_parsed("epochs", 1usize).is_err());
    }
}
