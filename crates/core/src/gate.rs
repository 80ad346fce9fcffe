//! Perf-regression gate: diff re-measured hot-path numbers against the
//! checked-in benchmark baselines (`BENCH_interp.json`,
//! `BENCH_serve.json`) with explicit tolerance bands.
//!
//! The policy mirrors the repo's determinism contract. Quantities the
//! simulator fully controls — virtual cycles, trap counts — are
//! **exact**: any drift means a code change silently altered the modeled
//! cost of a hot path, which is precisely what the gate exists to catch.
//! Derived per-trap ratios get a small relative band (rounding under
//! workload recalibration), and nothing wall-clock-based is gated here —
//! a single wall-time sample on shared CI is noise. Host time is measured
//! only by `hostbench/`, as repeated, calibrated samples with spread.
//!
//! The comparison logic is pure (`GateCheck`/`GateReport` over parsed
//! baselines), so the injected-regression test can prove the gate
//! actually fails when a baseline and a measurement disagree — a gate
//! that cannot fail is decoration. The `perf_gate` bench bin owns the
//! re-measuring and feeds this module.

use serde::{Deserialize, Serialize};

/// One gated comparison: a named measurement against its baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateCheck {
    /// What is being compared (e.g. `webserve.virtual_cycles`).
    pub name: String,
    /// The checked-in baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub measured: f64,
    /// Allowed relative regression in percent; `0` means byte-exact.
    pub tolerance_pct: f64,
    /// Whether the measurement is within the band.
    pub ok: bool,
}

/// Exact check for deterministic virtual quantities: any difference —
/// faster or slower — fails, because deterministic counts never drift.
pub fn check_exact(name: impl Into<String>, baseline: u64, measured: u64) -> GateCheck {
    GateCheck {
        name: name.into(),
        baseline: baseline as f64,
        measured: measured as f64,
        tolerance_pct: 0.0,
        ok: baseline == measured,
    }
}

/// One-sided regression band: the measurement may improve freely but may
/// not exceed `baseline * (1 + tolerance_pct/100)`.
pub fn check_max_regression(
    name: impl Into<String>,
    baseline: f64,
    measured: f64,
    tolerance_pct: f64,
) -> GateCheck {
    let limit = baseline * (1.0 + tolerance_pct / 100.0);
    GateCheck {
        name: name.into(),
        baseline,
        measured,
        tolerance_pct,
        ok: baseline.is_finite() && measured.is_finite() && measured <= limit,
    }
}

/// Two-sided band for quantities that must stay *near* the baseline in
/// either direction (e.g. sketch-vs-exact percentile error).
pub fn check_within(
    name: impl Into<String>,
    baseline: f64,
    measured: f64,
    tolerance_pct: f64,
) -> GateCheck {
    let band = baseline.abs() * tolerance_pct / 100.0;
    GateCheck {
        name: name.into(),
        baseline,
        measured,
        tolerance_pct,
        ok: baseline.is_finite() && measured.is_finite() && (measured - baseline).abs() <= band,
    }
}

/// Boolean invariant rendered in the same table (1 = holds).
pub fn check_flag(name: impl Into<String>, expected: bool, observed: bool) -> GateCheck {
    GateCheck {
        name: name.into(),
        baseline: f64::from(u8::from(expected)),
        measured: f64::from(u8::from(observed)),
        tolerance_pct: 0.0,
        ok: expected == observed,
    }
}

/// The gate's verdict: every check, pass or fail, in evaluation order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GateReport {
    /// All comparisons made.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Appends one check.
    pub fn push(&mut self, check: GateCheck) {
        self.checks.push(check);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The failing checks, in order.
    #[must_use]
    pub fn failures(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    /// Fixed-width table for CI logs: one line per check plus a verdict.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:>16} {:>7}  verdict",
            "check", "baseline", "measured", "tol%"
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<44} {:>16} {:>16} {:>7}  {}",
                c.name,
                trim_float(c.baseline),
                trim_float(c.measured),
                trim_float(c.tolerance_pct),
                if c.ok { "pass" } else { "FAIL" }
            );
        }
        let fails = self.failures().len();
        let _ = writeln!(
            out,
            "{} checks, {} failed{}",
            self.checks.len(),
            fails,
            if fails == 0 { " — gate passes" } else { "" }
        );
        out
    }
}

/// Renders integral floats without a trailing `.0`, others to 4 places.
fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

// ---- checked-in baseline parsing ----

/// The per-app row of `BENCH_interp.json` the gate consumes (extra fields
/// in the file are ignored).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppBaseline {
    /// Application id (`webserve`, `dbkv`, `ftpd`).
    pub app: String,
    /// Protection label the row was measured under.
    pub protection: String,
    /// Deterministic virtual cycles of the workload run.
    pub virtual_cycles: u64,
    /// Deterministic trap count.
    pub traps: u64,
    /// Monitor cycles per trap excluding init (drifts only if hot-path
    /// verification cost changes).
    pub steady_cycles_per_trap: f64,
}

/// The subset of `BENCH_interp.json` the gate reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterpBaseline {
    /// Per-app deterministic rows.
    pub apps: Vec<AppBaseline>,
}

impl InterpBaseline {
    /// Looks an app row up by id.
    #[must_use]
    pub fn app(&self, id: &str) -> Option<&AppBaseline> {
        self.apps.iter().find(|a| a.app == id)
    }
}

/// The subset of `BENCH_serve.json` the gate reads. The serve schedule is
/// fully deterministic (seeded mix, virtual clocks, jobs-invariant
/// sharding), so *every* gated quantity is exact — including the latency
/// quartet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBaseline {
    /// Tenants admitted by the queue.
    pub admitted: u64,
    /// Tenants that completed their whole workload.
    pub completed: u64,
    /// Tenants evicted early.
    pub evicted: u64,
    /// Requests served across the fleet.
    pub total_requests: u64,
    /// Traps across the fleet.
    pub total_traps: u64,
    /// Sum of tenant world clocks.
    pub fleet_cycles: u64,
    /// Fleet request-latency quartet.
    pub request_latency: ServeLatencyBaseline,
}

/// The latency quartet of a serve baseline lane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeLatencyBaseline {
    /// Observations.
    pub count: u64,
    /// Median (cycles).
    pub p50: u64,
    /// 95th percentile (cycles).
    pub p95: u64,
    /// 99th percentile (cycles).
    pub p99: u64,
    /// 99.9th percentile (cycles).
    pub p999: u64,
}

/// Parses the checked-in `BENCH_interp.json`.
///
/// # Errors
/// Fails with the parse/shape error message when the file does not carry
/// the expected fields.
pub fn parse_interp_baseline(json: &str) -> Result<InterpBaseline, String> {
    serde_json::from_str(json).map_err(|e| format!("BENCH_interp.json: {e:?}"))
}

/// Parses the checked-in `BENCH_serve.json`.
///
/// # Errors
/// Fails with the parse/shape error message on a malformed file.
pub fn parse_serve_baseline(json: &str) -> Result<ServeBaseline, String> {
    serde_json::from_str(json).map_err(|e| format!("BENCH_serve.json: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "bench": "interp",
        "apps": [
            {"app": "webserve", "protection": "CET+CT+CF+AI",
             "metric": 197.6, "virtual_cycles": 4747561, "traps": 1066,
             "cycles_per_trap": 128.49, "steady_cycles_per_trap": 124.42}
        ]
    }"#;

    #[test]
    fn baseline_subset_parses_with_extra_fields() {
        let b = parse_interp_baseline(BASELINE).unwrap();
        let app = b.app("webserve").unwrap();
        assert_eq!(app.virtual_cycles, 4_747_561);
        assert_eq!(app.traps, 1066);
        assert!(b.app("nosuch").is_none());
        assert!(parse_interp_baseline("{").is_err());
        let s = parse_serve_baseline(
            r#"{"bench":"serve","tenants":16,"admitted":16,"completed":15,
                "evicted":1,"total_requests":384,"total_traps":9000,
                "fleet_cycles":123456,
                "request_latency":{"count":384,"p50":10,"p95":20,"p99":30,"p999":40}}"#,
        )
        .unwrap();
        assert_eq!(s.admitted, 16);
        assert_eq!(s.request_latency.p999, 40);
        assert!(parse_serve_baseline("nope").is_err());
    }

    #[test]
    fn gate_fails_on_injected_regression() {
        let b = parse_interp_baseline(BASELINE).unwrap();
        let app = b.app("webserve").unwrap();
        // Clean re-measurement: every check passes.
        let mut clean = GateReport::default();
        clean.push(check_exact(
            "webserve.virtual_cycles",
            app.virtual_cycles,
            4_747_561,
        ));
        clean.push(check_exact("webserve.traps", app.traps, 1066));
        clean.push(check_max_regression(
            "webserve.steady_cycles_per_trap",
            app.steady_cycles_per_trap,
            124.42,
            2.0,
        ));
        assert!(clean.passed(), "{}", clean.render());

        // Injected regression: one extra virtual cycle must fail the gate.
        let mut tampered = GateReport::default();
        tampered.push(check_exact(
            "webserve.virtual_cycles",
            app.virtual_cycles,
            app.virtual_cycles + 1,
        ));
        assert!(!tampered.passed());
        assert_eq!(tampered.failures().len(), 1);
        assert!(tampered.render().contains("FAIL"));

        // A hot path 2.1% slower than baseline breaches the 2% band; 1.9%
        // does not; a free improvement always passes.
        let base = app.steady_cycles_per_trap;
        assert!(!check_max_regression("steady", base, base * 1.021, 2.0).ok);
        assert!(check_max_regression("steady", base, base * 1.019, 2.0).ok);
        assert!(check_max_regression("steady", base, base * 0.5, 2.0).ok);
    }

    #[test]
    fn two_sided_band_and_flags() {
        assert!(check_within("err", 100.0, 101.9, 2.0).ok);
        assert!(!check_within("err", 100.0, 102.1, 2.0).ok);
        assert!(!check_within("err", 100.0, 97.0, 2.0).ok);
        assert!(check_flag("byte_identical", true, true).ok);
        assert!(!check_flag("byte_identical", true, false).ok);
        let json = serde_json::to_string(&check_flag("x", true, true)).unwrap();
        assert!(json.contains("\"ok\":true"), "{json}");
    }
}
