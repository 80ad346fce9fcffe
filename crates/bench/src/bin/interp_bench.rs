//! Exact interpreter/monitor baseline: the per-app virtual-cycle and
//! trap rows `perf_gate` diffs against, the §11.2 extended-scope
//! comparison, and the span-traced phase breakdown.
//!
//! Every field is a deterministic virtual-time count, so a regenerated
//! report is byte-identical on any host. Host time is measured only by
//! `hostbench/`, as repeated samples with spread. Writes
//! `BENCH_interp.json`, or the path given as the only argument.

use bastion::apps::App;
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::vm::CostModel;
use bastion::Protection;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AppRow {
    app: String,
    protection: String,
    /// Paper metric (MB/s, NOTPM, or seconds per 100 MB).
    metric: f64,
    virtual_cycles: u64,
    traps: u64,
    /// Virtual trace cycles per monitor trap (0 when untraced). Includes
    /// the one-time monitor init (and tier-1 compile) charge.
    cycles_per_trap: f64,
    /// Per-trap trace cost with the one-time init charge excluded — the
    /// steady-state number a long-running server converges to.
    steady_cycles_per_trap: f64,
    /// One-time tier-1 check-program compile charge (0 with no prefilter).
    prefilter_compile_cycles: u64,
}

/// One §11.2 extended-scope row: the same app verified over the
/// filesystem-extended sensitive set with the two-tier split on vs off.
#[derive(Debug, Serialize)]
struct ExtendedScopeRow {
    app: String,
    /// Traps under the extended scope (identical for both runs).
    traps: u64,
    /// Steady-state trace cycles per trap, two-tier split on.
    two_tier_cycles_per_trap: f64,
    /// Steady-state trace cycles per trap, tier-2-only baseline.
    tier2_only_cycles_per_trap: f64,
    /// tier-2-only over two-tier per-trap cost.
    speedup: f64,
    /// Tier-1 hit rate of the two-tier run.
    prefilter_hit_rate: f64,
}

/// One phase's aggregate from a traced run (see `bastion_obs::phase_totals`).
#[derive(Debug, Serialize)]
struct PhaseRow {
    phase: String,
    spans: u64,
    instants: u64,
    /// Inclusive virtual cycles (children counted).
    cycles: u64,
    /// Exclusive virtual cycles (children subtracted).
    self_cycles: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    apps: Vec<AppRow>,
    /// §11.2: per-app two-tier vs tier-2-only comparison under the
    /// filesystem-extended sensitive scope.
    extended_scope: Vec<ExtendedScopeRow>,
    /// Per-phase monitor-time breakdown of a span-traced webserve/quick/full
    /// run. Tracing never charges virtual cycles, so the traced run's cycle
    /// counts are bit-identical to the untraced `apps` row.
    phase_breakdown: Vec<PhaseRow>,
}

fn app_row(app: App, protection: &Protection, size: &WorkloadSize) -> AppRow {
    let b = run_app_benchmark(
        app,
        protection,
        size,
        &BastionCompiler::new(),
        CostModel::default(),
    );
    let init = b.monitor.as_ref().map_or(0, |m| m.init_cycles);
    let per_trap = |cycles: u64| {
        if b.traps == 0 {
            0.0
        } else {
            cycles as f64 / b.traps as f64
        }
    };
    AppRow {
        app: app.id().to_string(),
        protection: b.protection.to_string(),
        metric: b.metric,
        virtual_cycles: b.cycles,
        traps: b.traps,
        cycles_per_trap: per_trap(b.trace_cycles),
        steady_cycles_per_trap: per_trap(b.trace_cycles.saturating_sub(init)),
        prefilter_compile_cycles: b.monitor.as_ref().map_or(0, |m| m.prefilter_compile_cycles),
    }
}

/// Steady-state trace cycles per trap (init charge excluded).
fn steady_per_trap(b: &AppBenchmark) -> f64 {
    let init = b.monitor.as_ref().map_or(0, |m| m.init_cycles);
    b.trace_cycles.saturating_sub(init) as f64 / b.traps.max(1) as f64
}

fn extended_scope_row(app: App, size: &WorkloadSize) -> ExtendedScopeRow {
    let (two_tier, t2_only) =
        bastion::harness::run_extended_scope_pair(app, size, CostModel::default());
    // The two runs differ only in trace cost: the application executes the
    // same instructions and traps the same sensitive syscalls either way.
    assert_eq!(
        (two_tier.steps, two_tier.traps),
        (t2_only.steps, t2_only.traps),
        "{}: extended-scope runs diverged on deterministic columns",
        app.id()
    );
    let tt = steady_per_trap(&two_tier);
    let t2 = steady_per_trap(&t2_only);
    ExtendedScopeRow {
        app: app.id().to_string(),
        traps: two_tier.traps,
        two_tier_cycles_per_trap: tt,
        tier2_only_cycles_per_trap: t2,
        speedup: t2 / tt.max(1e-12),
        prefilter_hit_rate: two_tier
            .monitor
            .as_ref()
            .map_or(0.0, |m| m.prefilter_hit_rate()),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let apps_list = [App::Webserve, App::Dbkv, App::Ftpd];
    let quick = WorkloadSize::quick();

    let apps: Vec<AppRow> = apps_list
        .iter()
        .map(|&app| app_row(app, &Protection::full(), &quick))
        .collect();
    for row in &apps {
        eprintln!(
            "{}/{}: {} cycles, {} traps, {:.0} cyc/trap",
            row.app, row.protection, row.virtual_cycles, row.traps, row.cycles_per_trap
        );
    }

    // §11.2 extended scope: the filesystem-extended sensitive set roughly
    // triples each app's trapped surface; the two-tier split must keep the
    // per-trap cost near the Table-1-scope number while the tier-2-only
    // baseline pays a full ptrace stop per trap.
    let extended_scope: Vec<ExtendedScopeRow> = apps_list
        .iter()
        .map(|&app| extended_scope_row(app, &quick))
        .collect();
    for row in &extended_scope {
        eprintln!(
            "extended {}: two-tier {:.0} cyc/trap vs tier-2-only {:.0}, speedup {:.2}x, hit rate {:.1}%",
            row.app,
            row.two_tier_cycles_per_trap,
            row.tier2_only_cycles_per_trap,
            row.speedup,
            row.prefilter_hit_rate * 100.0
        );
    }
    let ws_ext = &extended_scope[0];
    assert!(
        ws_ext.speedup >= 5.0,
        "extended-scope webserve two-tier speedup regressed below 5x: {:.2}x",
        ws_ext.speedup
    );

    // Phase breakdown: one span-traced webserve/quick/full run. The traced
    // run must reproduce the untraced row's cycle counts exactly — the
    // telemetry layer charges no virtual cycles.
    let guard = bastion::obs::TelemetryGuard::enable(1 << 17);
    let traced = run_app_benchmark(
        App::Webserve,
        &Protection::full(),
        &quick,
        &BastionCompiler::new(),
        CostModel::default(),
    );
    let (events, _registry) = guard.finish();
    assert_eq!(
        (traced.cycles, traced.traps),
        (apps[0].virtual_cycles, apps[0].traps),
        "span tracing perturbed the deterministic clock"
    );
    let phase_breakdown: Vec<PhaseRow> = bastion::obs::phase_totals(&events)
        .iter()
        .map(|t| PhaseRow {
            phase: t.phase.name().to_string(),
            spans: t.spans,
            instants: t.instants,
            cycles: t.cycles,
            self_cycles: t.self_cycles,
        })
        .collect();
    for row in &phase_breakdown {
        eprintln!(
            "phase {:<18} spans={:<6} incl={:<10} self={}",
            row.phase, row.spans, row.cycles, row.self_cycles
        );
    }

    let report = Report {
        bench: "interp".to_string(),
        apps,
        extended_scope,
        phase_breakdown,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
