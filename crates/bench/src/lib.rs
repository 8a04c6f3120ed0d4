//! Experiment harness regenerating every data-bearing table and figure of
//! the paper (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded outputs).
//!
//! Each `figNN` module exposes `run() -> String` producing the
//! figure's rows; the `experiments` binary prints them
//! (`cargo run -p wmpt-bench --bin experiments --release [fig15 ...]`),
//! and the plain-harness benches under `benches/` ([`timing`]) time the
//! underlying kernels and ablations.

pub mod comm_breakdown;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod gate;
pub mod kernels;
pub mod obs_report;
pub mod par_speedup;
pub mod plan_search;
pub mod report;
pub mod resilience;
pub mod scalability;
pub mod serve_load;
pub mod tables;
pub mod timing;

/// Formats a row of labelled values with fixed column width.
pub fn row(label: &str, values: &[String]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!("{v:>14}"));
    }
    s.push('\n');
    s
}

/// Formats a float to 3 significant decimals for table cells.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats bytes human-readably (KiB/MiB/GiB).
pub fn bytes(v: f64) -> String {
    const K: f64 = 1024.0;
    if v >= K * K * K {
        format!("{:.2}GiB", v / (K * K * K))
    } else if v >= K * K {
        format!("{:.2}MiB", v / (K * K))
    } else if v >= K {
        format!("{:.1}KiB", v / K)
    } else {
        format!("{v:.0}B")
    }
}

/// Machine-readable tables for replotting (written by
/// `experiments --tsv` into `results/`).
pub fn all_tsv_tables() -> Vec<report::Table> {
    vec![
        fig07::table(),
        fig15::table(),
        fig17::table(),
        scalability::table(),
    ]
}

/// How an experiment runs.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// Returns the experiment's table.
    Table(fn() -> String),
    /// Returns the table together with the report it renders; the
    /// `experiments` binary writes that report as the named `BENCH_*.json`
    /// file into the working directory.
    Report(&'static str, fn() -> (String, wmpt_obs::json::Value)),
}

impl Runner {
    /// Runs the experiment and returns its table. A report is built but
    /// written nowhere, so a library caller (a test, say) leaves the
    /// working tree untouched.
    pub fn table(self) -> String {
        match self {
            Runner::Table(run) => run(),
            Runner::Report(_, run) => run().0,
        }
    }
}

/// An experiment entry: name plus its runner.
pub type Experiment = (&'static str, Runner);

/// A named experiment, dispatchable from the `experiments` binary.
pub fn all_experiments() -> Vec<Experiment> {
    use Runner::{Report, Table};
    vec![
        ("tables", Table(tables::run)),
        ("fig01", Table(fig01::run)),
        ("fig06", Table(fig06::run)),
        ("fig07", Table(fig07::run)),
        ("fig12", Table(fig12::run)),
        ("fig14", Table(fig14::run)),
        ("fig15", Table(fig15::run)),
        ("fig16", Table(fig16::run)),
        ("fig17", Table(fig17::run)),
        ("fig18", Table(fig18::run)),
        ("scalability", Table(scalability::run)),
        ("comm_breakdown", Table(comm_breakdown::run)),
        ("resilience", Table(resilience::run)),
        (
            "par_speedup",
            Report("BENCH_par.json", par_speedup::run_with_report),
        ),
        (
            "kernels",
            Report("BENCH_kernels.json", kernels::run_with_report),
        ),
        (
            "serve_load",
            Report("BENCH_serve.json", serve_load::run_with_report),
        ),
        (
            "plan_search",
            Report("BENCH_plan.json", plan_search::run_with_report),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(42.42), "42.4");
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(bytes(512.0), "512B");
        assert_eq!(bytes(2048.0), "2.0KiB");
        assert!(bytes(3.0 * 1024.0 * 1024.0).ends_with("MiB"));
    }

    #[test]
    fn experiment_registry_is_complete() {
        let names: Vec<&str> = all_experiments().iter().map(|(n, _)| *n).collect();
        for expect in [
            "tables",
            "fig01",
            "fig06",
            "fig07",
            "fig12",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "scalability",
            "comm_breakdown",
            "resilience",
            "par_speedup",
            "kernels",
            "serve_load",
            "plan_search",
        ] {
            assert!(names.contains(&expect), "missing experiment {expect}");
        }
    }

    #[test]
    fn report_experiments_name_their_committed_files() {
        // CI reads these files after an `experiments` run, and each has a
        // baseline under `baselines/`.
        let files: Vec<(&str, &str)> = all_experiments()
            .into_iter()
            .filter_map(|(name, runner)| match runner {
                Runner::Report(file, _) => Some((name, file)),
                Runner::Table(_) => None,
            })
            .collect();
        assert_eq!(
            files,
            [
                ("par_speedup", "BENCH_par.json"),
                ("kernels", "BENCH_kernels.json"),
                ("serve_load", "BENCH_serve.json"),
                ("plan_search", "BENCH_plan.json"),
            ]
        );
    }
}
