//! Small helpers shared by the workloads: quantiles, peak memory, a
//! seeded generator, and the metric list a run prints.

use std::fmt::Write as _;

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Relative difference `|a - b| / |b|` (absolute when `b` is 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    if b == 0.0 {
        d
    } else {
        d / b.abs()
    }
}

/// Ordered `(name, value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The `{"name": {"value": v, "unit": "u"}, ...}` object; a value that
    /// is not finite (a failed run) is written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// `setup_s` samples, each from a fresh process of this binary running
/// `--setup-probe <args>`: set-up cost depends on the state of the
/// process it runs in, so samples from one process would all share it.
pub fn setup_samples(args: &[String], reps: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    (0..reps)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .arg("--setup-probe")
                .args(args)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up probe failed to run: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(v) if out.status.success() => Ok(v),
                _ => Err(format!("set-up probe failed: {} {text:?}", out.status)),
            }
        })
        .collect()
}

/// What a workload run hands back to `main`.
pub struct RunOutcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable findings (gate failures, consistency figures).
    pub notes: Vec<String>,
    /// Spans per process or thread group (traced runs only).
    pub spans: Vec<(String, Vec<crate::trace::Span>)>,
    /// Run facts as a JSON object.
    pub detail: String,
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"s\"}}"
        );
    }
}
