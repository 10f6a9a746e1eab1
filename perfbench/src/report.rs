//! Result assembly: metrics, failures, run metadata, and the JSON lines.

use std::fmt::Write as _;

/// A program that failed verification, with the checker's message.
pub struct Failure {
    pub program: String,
    pub message: String,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: usize,
    pub failures: Vec<Failure>,
    /// Informational `(key, value)` pairs: host, build and run metadata.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn meta(&mut self, key: impl Into<String>, value: impl ToString) {
        self.meta.push((key.into(), value.to_string()));
    }

    pub fn fail(&mut self, program: &str, message: impl Into<String>) {
        let message = message.into();
        eprintln!("[perfbench] FAILED {program}: {message}");
        self.failures.push(Failure { program: program.to_string(), message });
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`,
    /// printed as the last line of stdout.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// The full report: metadata, failures, metrics and (when traced) the
    /// spans, as one JSON document.
    pub fn document(&self, spans_json: Option<String>) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        let meta: Vec<String> =
            self.meta.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        out.push_str(&meta.join(", "));
        out.push_str("},\n  \"failures\": [");
        let fails: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"program\": \"{}\", \"message\": \"{}\"}}",
                    escape(&f.program),
                    escape(&f.message)
                )
            })
            .collect();
        out.push_str(&fails.join(", "));
        out.push_str("],\n  \"metrics\": {\n");
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  }");
        if let Some(spans) = spans_json {
            let _ = write!(out, ",\n  \"spans\": {spans}");
        }
        out.push_str("\n}\n");
        out
    }
}

/// A JSON number with every digit `f64` carries (`-0` prints as `0`;
/// non-finite values, which JSON cannot hold, become `-1`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "-1".to_string()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if c.is_control() => Vec::new(),
            c => vec![c],
        })
        .collect()
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Resource usage from `getrusage`: of this process (`RUSAGE_SELF`) or
/// of its waited-for children (`RUSAGE_CHILDREN`).
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set size in MB (Linux reports `ru_maxrss` in KiB).
    pub peak_rss_mb: f64,
}

pub fn usage(children: bool) -> Usage {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two timevals followed by fourteen longs), and `u` outlives
    // the call.
    let rc = unsafe { getrusage(if children { -1 } else { 0 }, &mut u) };
    if rc != 0 {
        return Usage { user_s: f64::NAN, sys_s: f64::NAN, peak_rss_mb: f64::NAN };
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        user_s: secs(u.utime),
        sys_s: secs(u.stime),
        peak_rss_mb: u.maxrss as f64 * 1024.0 / 1e6,
    }
}

/// The Panic message carried by a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.metric("wall_s", 1.25, "s");
        r.attempted = 7;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
