//! Shared harness for the paper-reproduction benches.
//!
//! Every table and figure of the DAC'18 paper has a `harness = false` bench
//! target in `benches/` that prints the paper's rows/series next to our
//! measured values and writes CSVs under `target/paper_out/`. Campaign
//! sizes derive from the paper's, scaled down 10× by default so the whole
//! suite regenerates in minutes; set `MBCR_SCALE` to rescale (e.g.
//! `MBCR_SCALE=10` for paper-sized campaigns, `MBCR_SCALE=0.1` for a smoke
//! run). The printed rows and the CSVs are the paper-vs-measured record;
//! no separate document keeps a copy.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use mbcr::{AnalysisConfig, TacTuning};
use mbcr_evt::ConvergenceConfig;

/// The campaign scale factor from `MBCR_SCALE` (default 1.0).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("MBCR_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Scales a base run count by [`scale`], with a floor of 100 runs.
#[must_use]
pub fn scaled(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(100)
}

/// The harness's analysis configuration: paper parameters with campaign
/// caps sized for a laptop (10× below the paper's largest campaigns at the
/// default scale).
#[must_use]
pub fn harness_config(seed: u64) -> AnalysisConfig {
    AnalysisConfig::builder()
        .seed(seed)
        .convergence(ConvergenceConfig {
            initial: 300,
            step: 100,
            max_runs: scaled(20_000),
            // The paper's MBPTA convergence accepts once the estimate is
            // stable at the few-percent level — deliberately *before* rare
            // conflictive layouts are observed (that gap is what TAC
            // closes). A 2% tolerance at 1e-12 would keep chasing every
            // tail fluctuation and never emulate that behaviour.
            epsilon: 0.10,
            stable_windows: 3,
            ..ConvergenceConfig::default()
        })
        .tac(TacTuning::default())
        .max_campaign_runs(scaled(100_000))
        .build()
}

/// Output directory for CSV series (`target/paper_out`).
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("paper_out");
    fs::create_dir_all(&dir).expect("create target/paper_out");
    dir
}

/// Writes a CSV file into [`out_dir`], returning its path.
///
/// # Panics
///
/// Panics on I/O errors (this is an experiment harness).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create CSV");
    writeln!(f, "{header}").expect("write CSV header");
    for r in rows {
        writeln!(f, "{r}").expect("write CSV row");
    }
    path
}

/// Prints a boxed section header, echoing which paper artefact follows.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("\n{line}\n| {title} |\n{line}");
    println!(
        "(MBCR_SCALE = {}; campaigns are paper/10 at scale 1)\n",
        scale()
    );
}

/// Fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a header row.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        let mut t = Table::default();
        t.row(header);
        t
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| (*c).to_string()).collect();
        if self.widths.len() < cells.len() {
            self.widths.resize(cells.len(), 0);
        }
        for (i, c) in cells.iter().enumerate() {
            self.widths[i] = self.widths[i].max(c.len());
        }
        self.rows.push(cells);
        self
    }

    /// Prints the table with a separator under the header.
    pub fn print(&self) {
        for (r, row) in self.rows.iter().enumerate() {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                line.push_str(&format!("{c:<width$}  ", width = self.widths[i]));
            }
            println!("{}", line.trim_end());
            if r == 0 {
                let total: usize = self.widths.iter().map(|w| w + 2).sum();
                println!("{}", "-".repeat(total.saturating_sub(2)));
            }
        }
    }
}

/// Formats a run count in thousands like the paper's tables ("70" = 70 000).
#[must_use]
pub fn in_thousands(runs: u64) -> String {
    if runs == 0 {
        "0".to_string()
    } else if runs < 1000 {
        format!("{:.1}", runs as f64 / 1000.0)
    } else {
        format!("{}", runs.div_ceil(1000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(in_thousands(0), "0");
        assert_eq!(in_thousands(500), "0.5");
        assert_eq!(in_thousands(70_000), "70");
        assert_eq!(in_thousands(84_873), "85");
    }

    #[test]
    fn scaled_has_floor() {
        assert!(scaled(10) >= 100);
    }
}
