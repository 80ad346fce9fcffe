//! `bastiond` serving benchmark: runs the multi-tenant supervisor over
//! the standard seeded mix, proves the schedule is **byte-identical** at
//! every worker count in the ladder (per-tenant worlds are independent
//! and sharding is jobs-invariant), and writes the fleet + per-tenant
//! latency report to `BENCH_serve.json` (or the path given as the first
//! argument).
//!
//! The checked-in report is fully deterministic — no wall-clock fields —
//! so `--check` re-measures and diffs **exactly** against the baseline
//! through `bastion::gate` (CI's serve gate): any drift in admitted
//! tenants, request totals, traps, fleet cycles, or the latency quartet
//! fails the run.
//!
//! Flags: `--tenants=N` (default 256), `--requests=N` (default 24),
//! `--seed=N` (default 0), `--jobs-list=1,4`, `--check`.

use bastion::gate::{self, GateReport};
use bastion::serve::{run_serve, ServeConfig, ServeRun};

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut tenants = 256usize;
    let mut requests = 24u64;
    let mut seed = 0u64;
    let ap = bastion::fleet::default_jobs();
    let mut ladder: Vec<usize> = vec![1, ap.max(2)];
    let mut check = false;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--tenants=") {
            tenants = v.parse().expect("--tenants takes an integer");
        } else if let Some(v) = a.strip_prefix("--requests=") {
            requests = v.parse().expect("--requests takes an integer");
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed takes an integer");
        } else if let Some(v) = a.strip_prefix("--jobs-list=") {
            ladder = v
                .split(',')
                .map(|n| n.parse().expect("--jobs-list takes integers"))
                .collect();
        } else if a == "--check" {
            check = true;
        } else {
            out_path = a;
        }
    }
    assert_eq!(
        ladder.first(),
        Some(&1),
        "ladder must start at the serial run"
    );

    let mut cfg = ServeConfig::new(tenants, seed);
    cfg.requests_per_tenant = requests;

    let mut reference: Option<(String, String)> = None;
    let mut run: Option<ServeRun> = None;
    let mut all_byte_identical = true;
    for &jobs in &ladder {
        eprintln!("bastiond, tenants={tenants}, jobs={jobs}...");
        let r = run_serve(&cfg.clone().with_jobs(jobs));
        let rendered = r.report.render();
        let json = serde_json::to_string_pretty(&r.report).expect("report serializes");
        let identical = match &reference {
            None => true,
            Some((ref_render, ref_json)) => rendered == *ref_render && json == *ref_json,
        };
        all_byte_identical &= identical;
        assert!(identical, "jobs={jobs} report diverged from the serial run");
        eprintln!(
            "  {} served / {} traps, byte-identical",
            r.report.total_requests, r.report.total_traps
        );
        if reference.is_none() {
            reference = Some((rendered, json));
            run = Some(r);
        }
    }
    let run = run.expect("ladder is non-empty");
    let (rendered, json) = reference.expect("ladder is non-empty");
    eprint!("{rendered}");

    if check {
        let baseline_json = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("{out_path}: {e} (generate the baseline first)"));
        let base = gate::parse_serve_baseline(&baseline_json).expect("baseline parses");
        let r = &run.report;
        let mut g = GateReport::default();
        g.push(gate::check_exact(
            "serve.admitted",
            base.admitted,
            r.admitted,
        ));
        g.push(gate::check_exact(
            "serve.completed",
            base.completed,
            r.completed,
        ));
        g.push(gate::check_exact("serve.evicted", base.evicted, r.evicted));
        g.push(gate::check_exact(
            "serve.total_requests",
            base.total_requests,
            r.total_requests,
        ));
        g.push(gate::check_exact(
            "serve.total_traps",
            base.total_traps,
            r.total_traps,
        ));
        g.push(gate::check_exact(
            "serve.fleet_cycles",
            base.fleet_cycles,
            r.fleet_cycles,
        ));
        let (b, m) = (&base.request_latency, &r.request_latency);
        g.push(gate::check_exact(
            "serve.request_latency.count",
            b.count,
            m.count,
        ));
        g.push(gate::check_exact("serve.request_latency.p50", b.p50, m.p50));
        g.push(gate::check_exact("serve.request_latency.p95", b.p95, m.p95));
        g.push(gate::check_exact("serve.request_latency.p99", b.p99, m.p99));
        g.push(gate::check_exact(
            "serve.request_latency.p999",
            b.p999,
            m.p999,
        ));
        g.push(gate::check_flag(
            "serve.all_byte_identical",
            true,
            all_byte_identical,
        ));
        print!("{}", g.render());
        assert!(g.passed(), "serve gate failed against {out_path}");
    } else {
        std::fs::write(&out_path, json).expect("write report");
        println!("wrote {out_path}");
    }
}
