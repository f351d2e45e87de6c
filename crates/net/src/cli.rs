//! Command-line parsing shared by the `pipellm-orchestrator` and
//! `stage-worker` binaries.
//!
//! Both take only `--flag value` pairs. Parsing is strict: an unknown
//! flag, a flag without a value, or a count that does not fit its type is
//! an error carrying the binary's usage line, never silently ignored or
//! truncated.

/// The `--flag value` pairs of one command line.
#[derive(Debug)]
pub struct Args {
    pairs: Vec<(String, String)>,
    usage: &'static str,
}

impl Args {
    /// Parses `args` (program name excluded) as `--flag value` pairs,
    /// accepting only the flags in `known`. A value may not itself look
    /// like a flag, so a flag followed by another flag has no value.
    /// Every error this parse or a later lookup returns ends with
    /// `usage`.
    pub fn parse(args: &[String], known: &[&str], usage: &'static str) -> Result<Args, String> {
        let mut parsed = Args {
            pairs: Vec::new(),
            usage,
        };
        let mut tokens = args.iter();
        while let Some(flag) = tokens.next() {
            if !known.contains(&flag.as_str()) {
                return Err(parsed.error(&format!("unknown argument {flag}")));
            }
            match tokens.next() {
                Some(value) if !value.starts_with("--") => {
                    parsed.pairs.push((flag.clone(), value.clone()));
                }
                _ => return Err(parsed.error(&format!("{flag} needs a value"))),
            }
        }
        Ok(parsed)
    }

    /// `message` followed by the usage line.
    pub fn error(&self, message: &str) -> String {
        format!("{message}\nusage: {}", self.usage)
    }

    /// The value of `flag`, if given (the first occurrence wins).
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `flag` as a `u64` in decimal or `0x` hex.
    pub fn u64(&self, flag: &str) -> Result<Option<u64>, String> {
        self.str(flag)
            .map(|v| parse_u64(v).ok_or_else(|| self.error(&format!("{flag}: not a number: {v}"))))
            .transpose()
    }

    /// `flag` as a `u32` count; a value above `u32::MAX` is an error.
    pub fn u32(&self, flag: &str) -> Result<Option<u32>, String> {
        self.narrow(flag)
    }

    /// `flag` as a `usize` byte count.
    pub fn usize(&self, flag: &str) -> Result<Option<usize>, String> {
        self.narrow(flag)
    }

    /// `flag` as a rate (a decimal float).
    pub fn f64(&self, flag: &str) -> Result<Option<f64>, String> {
        self.str(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| self.error(&format!("{flag}: not a rate: {v}")))
            })
            .transpose()
    }

    fn narrow<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.u64(flag)?
            .map(|v| {
                T::try_from(v).map_err(|_| self.error(&format!("{flag}: {v} is out of range")))
            })
            .transpose()
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["--stages", "--seed", "--fault-rate"];

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&args, KNOWN, "demo --stages <n>")
    }

    fn rejection(err: String) -> String {
        let (message, usage) = err.split_once('\n').expect("error has a usage line");
        assert_eq!(usage, "usage: demo --stages <n>");
        message.to_string()
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse("--stages 2 --supervised").unwrap_err();
        assert_eq!(rejection(err), "unknown argument --supervised");
        assert!(parse("stray").is_err());
    }

    #[test]
    fn flag_without_value_is_rejected() {
        let err = parse("--stages").unwrap_err();
        assert_eq!(rejection(err), "--stages needs a value");
        let err = parse("--stages --seed 3").unwrap_err();
        assert_eq!(rejection(err), "--stages needs a value");
    }

    #[test]
    fn count_beyond_u32_is_rejected_not_truncated() {
        let err = parse("--stages 4294967298").unwrap().u32("--stages");
        assert_eq!(
            rejection(err.unwrap_err()),
            "--stages: 4294967298 is out of range"
        );
        let args = parse("--stages 4294967295").unwrap();
        assert_eq!(args.u32("--stages").unwrap(), Some(u32::MAX));
        assert!(parse("--stages -1").unwrap().u32("--stages").is_err());
    }

    #[test]
    fn hex_seed_is_accepted() {
        let args = parse("--seed 0x9e3779b9 --fault-rate 0.25").unwrap();
        assert_eq!(args.u64("--seed").unwrap(), Some(0x9e37_79b9));
        assert_eq!(args.f64("--fault-rate").unwrap(), Some(0.25));
        assert_eq!(args.u32("--stages").unwrap(), None);
        let err = parse("--seed 0xzz").unwrap().u64("--seed").unwrap_err();
        assert_eq!(rejection(err), "--seed: not a number: 0xzz");
    }
}
