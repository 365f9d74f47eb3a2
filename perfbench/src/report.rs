//! Summary statistics, the result line, and run provenance.

use std::fmt::Write as _;
use std::path::Path;

/// Median of a sample set (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `q` (0–100) of a sample set (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples strictly above the `q`-th percentile — the tail depth a
/// percentile rests on.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Prints one aligned human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The `metrics` object of the result line.
    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit it carries.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Prints the result line — always the last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
}

/// Where and on what a run happened: recorded with every result.
#[derive(Debug)]
pub struct Provenance {
    /// Workload seed.
    pub seed: u64,
    /// Cores the OS reports.
    pub nproc: usize,
    /// Cards in the served fleet.
    pub cards: usize,
    /// `HE_NTT_THREADS` as set in the environment (`unset` if absent).
    pub ntt_threads_env: String,
    /// Transform threads he-ntt resolved.
    pub ntt_threads: usize,
    /// Git revision of the source tree, when it is a git checkout.
    pub revision: String,
    /// First-party non-test lines of Rust (informational).
    pub loc: usize,
}

impl Provenance {
    /// Collects the provenance of this process, reading sources under
    /// the current directory (the repository root).
    pub fn collect(seed: u64, cards: usize) -> Provenance {
        Provenance {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cards,
            ntt_threads_env: std::env::var("HE_NTT_THREADS").unwrap_or_else(|_| "unset".into()),
            ntt_threads: he_ntt::par::thread_count(),
            revision: git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            loc: first_party_loc(Path::new(".")),
        }
    }

    /// One JSON line for logs.
    pub fn json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"nproc\": {}, \"cards\": {}, \"he_ntt_threads_env\": \"{}\", \
             \"he_ntt_threads\": {}, \"revision\": \"{}\", \"first_party_loc\": {}}}",
            self.seed,
            self.nproc,
            self.cards,
            self.ntt_threads_env,
            self.ntt_threads,
            self.revision,
            self.loc
        )
    }
}

/// Resolves `HEAD` by reading the git directory (no subprocess).
fn git_revision(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Non-blank, non-comment lines of `src/` Rust in the root package and
/// every crate under `crates/`, stopping each file at its first
/// `#[cfg(test)]` (test modules sit at the end of files here).
fn first_party_loc(root: &Path) -> usize {
    let mut dirs = vec![root.join("src")];
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        dirs.extend(crates.flatten().map(|entry| entry.path().join("src")));
    }
    let mut total = 0;
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|entry| entry.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                total += text
                    .lines()
                    .map(str::trim)
                    .take_while(|line| *line != "#[cfg(test)]")
                    .filter(|line| !line.is_empty() && !line.starts_with("//"))
                    .count();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(beyond(&samples, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
