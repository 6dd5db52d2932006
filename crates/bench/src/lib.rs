//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary accepts:
//! * `--scale N` — divide dataset sizes by an *extra* factor `N` on top of
//!   each dataset's base scale (default 1, at least 1; larger = faster);
//! * `--seed S` — generator seed (default 7).
//!
//! Dataset base scales are chosen so the largest per-block distance table
//! fits comfortably in host memory (the paper hits the same wall at the
//! K40c's 12 GB; see §2.3). EXPERIMENTS.md records the scales used for the
//! committed results.

#![forbid(unsafe_code)]

use ear_graph::CsrGraph;
use ear_workloads::DatasetSpec;

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Extra downscale factor applied on top of the per-dataset base scale.
    pub scale: usize,
    /// Generator seed.
    pub seed: u64,
}

impl BenchOpts {
    /// Parses `std::env::args()`; on a bad argument prints the error and a
    /// usage line to stderr and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        BenchOpts::parse(args.get(1..).unwrap_or_default()).unwrap_or_else(|e| {
            let bin = args.first().map_or("bench", |a| {
                a.rsplit(std::path::MAIN_SEPARATOR).next().unwrap_or(a)
            });
            eprintln!("error: {e}");
            eprintln!("usage: {bin} [--scale N] [--seed S]");
            std::process::exit(2)
        })
    }

    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = BenchOpts { scale: 1, seed: 7 };
        // The integer value after `flag`.
        fn int<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
            let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map_err(|_| format!("{flag} takes an integer, not '{raw}'"))
        }
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = int(arg, args.next())?,
                "--seed" => opts.seed = int(arg, args.next())?,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if opts.scale == 0 {
            return Err("--scale must be at least 1".into());
        }
        Ok(opts)
    }
}

/// Per-dataset base scale: keeps the largest biconnected component around
/// or below ~4K vertices so per-block tables stay in the hundreds of MB.
pub fn base_scale(spec: &DatasetSpec) -> usize {
    (spec.n / 4000).max(4)
}

/// Base scale for the MCB benches. The phase loop runs `f` rounds whose
/// per-round work is `O(n·|Z|)`; graphs need a couple thousand vertices for
/// the GPU's bandwidth advantage to amortise its per-phase kernel launches
/// (exactly the paper's regime, where runs take hours on 10K+-vertex
/// graphs), while staying far smaller than the paper so the harness
/// finishes in minutes.
pub fn mcb_base_scale(spec: &DatasetSpec) -> usize {
    (spec.n / 1500).max(8)
}

/// Builds a spec at its base scale times the CLI extra scale.
pub fn build_apsp(spec: &DatasetSpec, opts: &BenchOpts) -> (CsrGraph, usize) {
    let s = base_scale(spec) * opts.scale;
    (spec.build(s, opts.seed), s)
}

/// Builds a spec at the MCB scale.
pub fn build_mcb(spec: &DatasetSpec, opts: &BenchOpts) -> (CsrGraph, usize) {
    let s = mcb_base_scale(spec) * opts.scale;
    (spec.build(s, opts.seed), s)
}

/// The paper's MTEPS metric: `m · n / seconds / 1e6` (§2.4.3).
pub fn mteps(n: usize, m: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    (m as f64 * n as f64) / seconds / 1e6
}

/// Formats seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Geometric mean (the right average for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders with per-column widths.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut w = vec![0usize; cols];
        for c in 0..cols {
            w[c] = self.headers[c].len();
            for r in &self.rows {
                w[c] = w[c].max(r[c].len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, cell) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", cell, width = w[c]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            w.iter().map(|&x| "-".repeat(x + 2)).collect::<String>()
        );
        for r in &self.rows {
            line(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        BenchOpts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn opts_parse_values_and_reject_bad_ones() {
        let o = parse(&["--scale", "8", "--seed", "3"]).unwrap();
        assert_eq!((o.scale, o.seed), (8, 3));
        let o = parse(&[]).unwrap();
        assert_eq!((o.scale, o.seed), (1, 7));
        assert_eq!(parse(&["--scale"]).unwrap_err(), "--scale needs a value");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        let bad = parse(&["--scale", "x"]).unwrap_err();
        assert_eq!(bad, "--scale takes an integer, not 'x'");
        assert!(parse(&["--seed", "-1"]).is_err());
        let zero = parse(&["--scale", "0"]).unwrap_err();
        assert_eq!(zero, "--scale must be at least 1");
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument '--bogus'"
        );
        assert_eq!(
            parse(&["--phases"]).unwrap_err(),
            "unknown argument '--phases'"
        );
    }

    #[test]
    fn mteps_formula() {
        assert!((mteps(1000, 2000, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(mteps(10, 10, 0.0), 0.0);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_s_ranges() {
        assert!(fmt_s(0.000002).contains("us"));
        assert!(fmt_s(0.02).contains("ms"));
        assert!(fmt_s(2.0).contains("s"));
    }

    #[test]
    fn base_scales_bound_block_size() {
        for spec in ear_workloads::specs::all_specs() {
            let s = base_scale(&spec);
            assert!(spec.n / s <= 4800, "{}", spec.name);
        }
    }
}
