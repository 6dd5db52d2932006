//! Runs every table/figure binary in sequence, then the design ablations —
//! the one-shot regeneration entry point whose output backs EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p ear-bench --bin run_all [-- --scale N]
//! ```
//!
//! It first rebuilds its sibling binaries with
//! `"$CARGO" build --release -p ear-bench --bins` (`cargo run` sets
//! `CARGO`), so the tables always come from the current source.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

const BUILD: &str = "\"$CARGO\" build --release -p ear-bench --bins";

fn main() -> ExitCode {
    let Some(cargo) = std::env::var_os("CARGO") else {
        eprintln!(
            "run_all: CARGO is unset, so `{BUILD}` cannot rebuild the table binaries; \
             start it with `cargo run --release -p ear-bench --bin run_all`"
        );
        return ExitCode::FAILURE;
    };
    let built = Command::new(cargo)
        .args(["build", "--release", "-p", "ear-bench", "--bins"])
        .status()
        .expect("failed to launch cargo");
    if !built.success() {
        eprintln!("run_all: `{BUILD}` failed");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "table1",
        "fig2_apsp",
        "fig3_mteps",
        "table2_mcb",
        "fig5_speedup",
        "fig6_absolute",
        "ablations",
    ];
    for bin in bins {
        println!("\n{}", "=".repeat(78));
        println!("== {bin}");
        println!("{}\n", "=".repeat(78));
        let status = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .args(&args)
            .status()
            .expect("failed to launch sibling binary");
        assert!(status.success(), "{bin} failed");
    }
    ExitCode::SUCCESS
}
