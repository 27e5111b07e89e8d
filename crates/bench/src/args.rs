//! Minimal argument parsing shared by the figure binaries (no external
//! CLI crate — the option space is tiny and fixed).

/// Options common to every figure binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Use the paper's full problem sizes instead of container-scaled
    /// defaults.
    pub full: bool,
    /// Timing repetitions per point (the paper uses 10).
    pub reps: usize,
    /// Directory for CSV output.
    pub out: String,
    /// Free-form `--part X` selector (Figure 2 uses `a` / `b`).
    pub part: Option<String>,
    /// Thread override (`--threads N`); 0 = all available.
    pub threads: Option<usize>,
    /// Capture spans and write a JSON snapshot of the run's per-call
    /// records and counters next to the CSVs (`--trace`; needs the
    /// `trace` cargo feature).
    pub trace: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            full: false,
            reps: 5,
            out: "results".to_string(),
            part: None,
            threads: None,
            trace: false,
        }
    }
}

impl BenchArgs {
    /// Parses from an explicit token list (testable core).
    ///
    /// # Panics
    /// On unknown flags or missing/invalid values, with a usage message.
    pub fn parse_from(tokens: &[&str]) -> Self {
        let mut a = Self::default();
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            match *tok {
                "--full" => a.full = true,
                "--reps" => {
                    a.reps = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--reps needs a positive integer"));
                }
                "--out" => {
                    a.out = it
                        .next()
                        .unwrap_or_else(|| panic!("--out needs a directory"))
                        .to_string();
                }
                "--part" => {
                    a.part = Some(
                        it.next()
                            .unwrap_or_else(|| panic!("--part needs a value"))
                            .to_string(),
                    );
                }
                "--threads" => {
                    a.threads = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| panic!("--threads needs an integer")),
                    );
                }
                "--trace" => a.trace = true,
                other => panic!(
                    "unknown flag {other}; supported: --full --reps N --out DIR --part X --threads N --trace"
                ),
            }
        }
        assert!(a.reps >= 1, "--reps must be >= 1");
        a
    }

    /// Parses the process arguments.
    pub fn parse() -> Self {
        let owned: Vec<String> = std::env::args().skip(1).collect();
        let toks: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
        Self::parse_from(&toks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = BenchArgs::parse_from(&[]);
        assert!(!a.full);
        assert_eq!(a.reps, 5);
        assert_eq!(a.out, "results");
        assert!(a.part.is_none());
        assert!(!a.trace);
    }

    #[test]
    fn all_flags() {
        let a = BenchArgs::parse_from(&[
            "--full",
            "--reps",
            "10",
            "--out",
            "/tmp/x",
            "--part",
            "b",
            "--threads",
            "8",
            "--trace",
        ]);
        assert!(a.full);
        assert_eq!(a.reps, 10);
        assert_eq!(a.out, "/tmp/x");
        assert_eq!(a.part.as_deref(), Some("b"));
        assert_eq!(a.threads, Some(8));
        assert!(a.trace);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        BenchArgs::parse_from(&["--wat"]);
    }

    #[test]
    #[should_panic(expected = "--reps needs")]
    fn bad_reps_panics() {
        BenchArgs::parse_from(&["--reps", "x"]);
    }
}
