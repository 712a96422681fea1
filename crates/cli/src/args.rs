//! Minimal command-line argument parsing (no external dependencies): a
//! subcommand followed by `--flag value` / `--flag` pairs.

/// Parsed command line: subcommand plus flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub command: String,
    /// `--name value` and bare `--name` flags, in command-line order.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses from an iterator of arguments (excluding the binary name).
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().unwrap_or_default();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        for arg in argv {
            if let Some(name) = arg.strip_prefix("--") {
                flags.push((name.to_string(), None));
            } else if let Some((_, value @ None)) = flags.last_mut() {
                *value = Some(arg);
            } else {
                return Err(format!("unexpected positional argument {arg:?}"));
            }
        }
        Ok(Args { command, flags })
    }

    /// Fails naming the first flag that is not in `known`.
    pub fn check_flags(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(name, _)| !known.contains(&name.as_str())) {
            Some((name, _)) => Err(format!(
                "unknown flag --{name} for {:?}; try `steam-cli help`",
                self.command
            )),
            None => Ok(()),
        }
    }

    /// The value of the last `--name value` given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find_map(|(n, v)| if n == name { v.as_deref() } else { None })
    }

    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    pub fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name} value {raw:?} is not valid")),
        }
    }

    /// Whether a boolean switch (e.g. `--timings`) was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse("generate --users 1000 --seed 7 --verbose").unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get("users"), Some("1000"));
        assert_eq!(a.get_parse("seed", 0u64).unwrap(), 7);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.get_or("out", "default.bin"), "default.bin");
    }

    #[test]
    fn empty_command_line() {
        let a = parse("").unwrap();
        assert_eq!(a.command, "");
    }

    #[test]
    fn positional_rejected() {
        assert!(parse("run stray").is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = parse("x --n banana").unwrap();
        assert!(a.get_parse("n", 0u32).is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = parse("serve --port 80 --quiet").unwrap();
        assert_eq!(a.get("port"), Some("80"));
        assert!(a.has("quiet"));
    }
}
