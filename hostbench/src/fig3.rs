//! `paper-fig3`: the Figure 3 / Table 3 grid — the vanilla baseline and
//! the five protection columns for all three applications at
//! `WorkloadSize::standard()` — on the blocking `apps::loadgen` /
//! `core::harness` path.
//!
//! The untraced batch is `run_figure3_row`'s public calls
//! (`run_app_benchmark` per column). The replay follows
//! `run_app_benchmark` through public functions and must produce the same
//! `AppBenchmark` rows.

use crate::calib::Stopwatch;
use crate::profile::{Profile, Timed};
use crate::{digest, Batch, Replay, Virtual};
use bastion::apps::loadgen::{self, REQUEST_CYCLES_SKETCH};
use bastion::apps::{ftpd, App, ALL_APPS};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::kernel::{LegacyInterpGuard, World};
use bastion::obs::{QuantileSketch, TelemetryGuard};
use bastion::serve::VERIFY_CYCLES_SKETCH;
use bastion::vm::{CostModel, Image, Machine};
use bastion::{Deployment, Protection};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Ops one run of `app` completes: HTTP requests, TPC-C transactions or
/// FTP downloads.
fn ops(app: App, size: &WorkloadSize) -> u64 {
    match app {
        App::Webserve => size.http_requests,
        App::Dbkv => size.tpcc_tx,
        App::Ftpd => size.ftp_downloads,
    }
}

/// Runs per application: the baseline plus every Figure 3 column.
fn runs_per_app() -> u64 {
    1 + Protection::figure3().len() as u64
}

/// One set-up: compile the three applications.
pub fn setup() -> f64 {
    let t = Instant::now();
    let deployments: Vec<Deployment> = ALL_APPS
        .iter()
        .map(|app| {
            Deployment::from_module(app.module().expect("shipped app compiles"))
                .expect("shipped app instruments")
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    drop(deployments);
    secs
}

/// `run_figure3_row` for every application, spelled out as the
/// `run_app_benchmark` calls it makes so that each run is its own timed
/// part: the grid runs for seconds, long enough for the host's speed to
/// change within it. A row that panics (an application died or stopped
/// serving) counts all its runs as failed.
pub fn batch(sw: &mut Stopwatch) -> Batch {
    let _interp = LegacyInterpGuard::set(false);
    let size = WorkloadSize::standard();
    let cost = CostModel::default();
    let (mut done, mut attempted) = (0, 0);
    let mut rows = Vec::new();
    for app in ALL_APPS {
        let n = ops(app, &size) * runs_per_app();
        attempted += n;
        let row = catch_unwind(AssertUnwindSafe(|| {
            let compiler = BastionCompiler::new();
            let mut run =
                |p: &Protection| sw.time(|| run_app_benchmark(app, p, &size, &compiler, cost));
            let baseline = run(&Protection::vanilla());
            let columns: Vec<AppBenchmark> = Protection::figure3().iter().map(run).collect();
            (baseline, columns)
        }));
        if let Ok(row) = row {
            done += n;
            rows.push(row);
        }
    }
    Batch {
        ops: done,
        attempted,
        failed: attempted - done,
        digest: digest(&format!("{rows:?}")),
    }
}

/// Replays the grid with spans around each layer.
pub fn replay(traced: bool, p: &mut Profile) -> Replay {
    let _interp = LegacyInterpGuard::set(false);
    let size = WorkloadSize::standard();
    let cost = CostModel::default();
    let full = Protection::full().label;
    let wall = Instant::now();
    let mut rows = Vec::new();
    let mut req = QuantileSketch::new();
    let mut verify = QuantileSketch::new();
    let (mut cycles, mut trace, mut total_ops) = (0u64, 0u64, 0u64);
    let mut overhead_pct = 0.0;
    for app in ALL_APPS {
        let compiler = BastionCompiler::new();
        let mut run = |protection: &Protection| {
            let (b, sketches) = run_app(app, protection, &size, &compiler, cost, traced, p);
            cycles += b.cycles;
            trace += b.trace_cycles;
            total_ops += ops(app, &size);
            if let Some(sk) = sketches.1 {
                verify.merge(&sk);
            }
            // FTP sessions are a different unit from requests and
            // transactions, so the request-latency metrics leave them out.
            if protection.label == full && app != App::Ftpd {
                if let Some(sk) = sketches.0 {
                    req.merge(&sk);
                }
            }
            b
        };
        let baseline = run(&Protection::vanilla());
        let columns: Vec<AppBenchmark> = Protection::figure3().iter().map(&mut run).collect();
        let last = columns.last().expect("Figure 3 has columns");
        overhead_pct += last.overhead_vs(&baseline) / ALL_APPS.len() as f64;
        rows.push((baseline, columns));
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    p.count("monitor.trace_vcycles", trace as f64);
    p.count("monitor.verify_vcycles_p99", verify.quantile(0.99) as f64);
    Replay {
        digest: digest(&format!("{rows:?}")),
        attempted: total_ops,
        failed: 0,
        wall_ms,
        virt: Virtual {
            vcycles_per_op: cycles as f64 / total_ops.max(1) as f64,
            req_vcycles_p50: req.quantile(0.50) as f64,
            req_vcycles_p99: req.quantile(0.99) as f64,
            vtime_overhead_pct: overhead_pct,
        },
    }
}

type Sketches = (Option<QuantileSketch>, Option<QuantileSketch>);

/// `run_app_benchmark` through public calls, returning the run's request
/// and trap-verification sketches next to its row.
fn run_app(
    app: App,
    protection: &Protection,
    size: &WorkloadSize,
    compiler: &BastionCompiler,
    cost: CostModel,
    traced: bool,
    p: &mut Profile,
) -> (AppBenchmark, Sketches) {
    let (image, metadata, instr) = p.time("compiler.compile", || {
        let module = app.module().expect("app compiles");
        if protection.has_monitor() {
            let out = compiler.compile(module).expect("instrumentation succeeds");
            let stats = out.metadata.stats.clone();
            let image = Image::load(out.module).expect("image loads");
            (Arc::new(image), Some(out.metadata), Some(stats))
        } else {
            (
                Arc::new(Image::load(module).expect("image loads")),
                None,
                None,
            )
        }
    });
    let mut world = World::new(cost);
    p.time("apps.setup_vfs", || app.setup_vfs(&mut world));
    p.time("boot.launch", || {
        let mut machine = Machine::new(image.clone(), cost);
        protection.hardening.apply(&mut machine);
        let pid = world.spawn(machine);
        if let (Some(cfg), Some(md)) = (protection.monitor, &metadata) {
            bastion::monitor::protect(&mut world, pid, &image, md, cfg);
        }
    });
    if traced {
        Timed::wrap(&mut world, &p.clock);
    }
    p.time("boot.run", || world.run(1_000_000_000));
    p.count("boot.traps", world.trap_count as f64);
    assert!(world.alive_count() > 0, "{} died during boot", app.id());

    let guard = p.time("obs.telemetry", || TelemetryGuard::enable(64));
    let monitor_before = p.clock.monitor_ns();
    let metric = p.time("loadgen", || match app {
        App::Webserve => loadgen::http_load(
            &mut world,
            app.port(),
            size.http_concurrency,
            size.http_requests,
        )
        .throughput_mb_s(cost.cpu_hz),
        App::Dbkv => loadgen::tpcc_load(&mut world, app.port(), size.tpcc_sessions, size.tpcc_tx)
            .notpm(cost.cpu_hz),
        App::Ftpd => loadgen::ftp_load(&mut world, app.port(), size.ftp_downloads, ftpd::FILE_PATH)
            .seconds_for(100_000_000, cost.cpu_hz),
    });
    let loadgen_monitor_ns = p.clock.monitor_ns() - monitor_before;
    p.count("loadgen.monitor_ms", loadgen_monitor_ns as f64 / 1e6);
    let (_, registry) = p.time("obs.telemetry", || guard.finish());

    p.count("vm.steps", world.steps as f64);
    p.count("kernel.traps", world.trap_count as f64);
    p.count(
        "kernel.syscalls",
        world.kernel.counts.values().sum::<u64>() as f64,
    );
    let monitor = world.take_tracer().and_then(|t| {
        t.as_any()
            .downcast_ref::<bastion::monitor::Monitor>()
            .map(|m| m.stats.clone())
    });
    let row = AppBenchmark {
        app,
        protection: protection.label,
        metric,
        cycles: world.now(),
        steps: world.steps,
        trace_cycles: world.trace_cycles,
        traps: world.trap_count,
        syscall_counts: world.kernel.counts.clone(),
        monitor,
        instr,
    };
    let sketches = (
        registry.sketch(REQUEST_CYCLES_SKETCH).cloned(),
        registry.sketch(VERIFY_CYCLES_SKETCH).cloned(),
    );
    (row, sketches)
}
