//! `serve-mix` and `serve-rpc`: the `bastiond` supervisor over a seeded
//! tenant mix.
//!
//! The untraced batch is the public entry point (`run_serve` /
//! `serve_with_specs`). The replay follows `core::serve`'s private loop —
//! boot every tenant, then for each turn pump the client side, run the
//! world for one quantum and merge the turn's telemetry — through public
//! functions only, so the benchmark can open spans around each layer. Its
//! `ServeReport` must serialize byte-identically to the public one.

use crate::calib::Stopwatch;
use crate::profile::{Profile, Timed};
use crate::{digest, quantile, splitmix, Batch, Replay, Virtual};
use bastion::apps::loadgen::REQUEST_CYCLES_SKETCH;
use bastion::apps::{traffic::Traffic, App};
use bastion::kernel::{ExitReason, LegacyInterpGuard, RunStatus, World};
use bastion::obs::{MetricsRegistry, QuantileSketch, SketchSnapshot, TelemetryGuard};
use bastion::serve::{
    tenant_mix, AdmissionQueue, AppLane, LatencyLane, ServeConfig, ServeReport, TenantKind,
    TenantReport, TenantSpec, VERIFY_CYCLES_SKETCH,
};
use bastion::{chaos, fleet, run_serve, serve_with_specs, Deployment, Protection};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// `serve-mix` fleet size: 12 webserve, 8 dbkv and 4 ftpd tenants.
const MIX_TENANTS: usize = 24;
/// `serve-mix` asks for two fleet workers (capped at the host's cores).
pub const MIX_WORKERS: usize = 2;
/// `serve-rpc` fleet size: 2 webserve tenants to every dbkv tenant.
const RPC_TENANTS: usize = 36;

// Mirrors of `core::serve`'s private constants; the replay's report must
// match the public one byte for byte, so a drift here fails the run.
const BOOT_BUDGET: u64 = 1_000_000_000;
const TURN_SPANS: usize = 64;
const STALL_LIMIT: u32 = 64;

/// One serve workload: the supervisor configuration and its tenants.
pub struct Serve {
    cfg: ServeConfig,
    specs: Vec<TenantSpec>,
    /// Whether the specs are `tenant_mix(&cfg)`, run through `run_serve`.
    standard_mix: bool,
}

impl Serve {
    /// `serve-mix`: `run_serve` over the seeded `tenant_mix`. The benchmark
    /// seed picks the first mix seed whose draw has the mix's exact shares
    /// in each half of the tenant list, so every seed runs the same amount
    /// of each application on each of two shards and only the order
    /// within a shard changes.
    pub fn mix(seed: u64, jobs: usize) -> Serve {
        let mut s = seed;
        loop {
            let mix_seed = splitmix(&mut s);
            let cfg = ServeConfig::new(MIX_TENANTS, mix_seed).with_jobs(jobs);
            let specs = tenant_mix(&cfg);
            if specs
                .chunks(MIX_TENANTS / 2)
                .all(|half| counts(half) == [6, 4, 2])
            {
                return Serve {
                    cfg,
                    specs,
                    standard_mix: true,
                };
            }
        }
    }

    /// `serve-rpc`: `serve_with_specs` over webserve and dbkv tenants in a
    /// fixed 2:1 ratio, in an order shuffled by the seed, on one worker.
    pub fn rpc(seed: u64) -> Serve {
        let cfg = ServeConfig::new(RPC_TENANTS, seed);
        let mut apps: Vec<App> = (0..RPC_TENANTS)
            .map(|i| if i % 3 == 2 { App::Dbkv } else { App::Webserve })
            .collect();
        let mut s = seed;
        for i in (1..apps.len()).rev() {
            let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
            apps.swap(i, j);
        }
        let specs = apps
            .into_iter()
            .enumerate()
            .map(|(id, app)| TenantSpec {
                id: id as u32,
                kind: TenantKind::App(app),
                requests: cfg.requests_per_tenant,
            })
            .collect();
        Serve {
            cfg,
            specs,
            standard_mix: false,
        }
    }

    /// Fleet workers the workload runs with.
    pub fn jobs(&self) -> usize {
        self.cfg.jobs
    }

    /// One set-up: compile every program once and boot every tenant to its
    /// accept loop, sharded over the workload's workers as `run_serve`
    /// shards them. The booted worlds are dropped outside the timed part.
    pub fn setup(&self) -> f64 {
        let t = Instant::now();
        let programs = compile(&self.specs, &mut Profile::default());
        let worlds =
            fleet::run_ordered(self.cfg.jobs, shard(&self.specs, self.cfg.jobs), |_, sh| {
                let _interp = LegacyInterpGuard::set(false);
                sh.iter()
                    .map(|s| boot(s, &programs, &self.cfg, false, &mut Profile::default()).world)
                    .collect::<Vec<World>>()
            });
        let secs = t.elapsed().as_secs_f64();
        drop(worlds);
        secs
    }

    /// The public entry point on `jobs` workers.
    pub fn batch(&self, jobs: usize, sw: &mut Stopwatch) -> Batch {
        let cfg = ServeConfig {
            jobs,
            ..self.cfg.clone()
        };
        let run = sw.time(|| {
            if self.standard_mix {
                run_serve(&cfg)
            } else {
                serve_with_specs(&cfg, self.specs.clone())
            }
        });
        let (attempted, failed) = failures(&run.report.rows);
        Batch {
            ops: run.report.total_requests,
            attempted,
            failed,
            digest: digest(&report_json(&run.report)),
        }
    }

    /// Replays the supervisor loop with spans around each layer. Shards
    /// run one after another on the calling thread so the layer times add
    /// up to the wall time; `fleet.shard_skew` still describes the real
    /// split.
    pub fn replay(&self, traced: bool, p: &mut Profile) -> Replay {
        let _interp = LegacyInterpGuard::set(false);
        let wall = Instant::now();
        let mut queue = AdmissionQueue::new(self.cfg.admission_capacity);
        for spec in &self.specs {
            queue.submit(spec.clone());
        }
        let (admitted, rejected) = queue.drain();
        let programs = compile(&admitted, p);
        let mut shard_ms = Vec::new();
        let mut done = Vec::new();
        for sh in shard(&admitted, self.cfg.jobs) {
            let t = Instant::now();
            done.extend(run_shard(&sh, &programs, &self.cfg, traced, p));
            shard_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }

        let mut fleet_reg = MetricsRegistry::new();
        let mut per_app: BTreeMap<String, (u64, QuantileSketch)> = BTreeMap::new();
        let mut rows = Vec::new();
        let mut total_bytes = 0u64;
        let mut trace_cycles = 0u64;
        for d in done {
            let entry = per_app.entry(d.row.app.clone()).or_default();
            entry.0 += 1;
            if let Some(sk) = d.registry.sketch(REQUEST_CYCLES_SKETCH) {
                entry.1.merge(sk);
            }
            total_bytes += d.bytes;
            trace_cycles += d.trace_cycles;
            p.count("vm.steps", d.steps as f64);
            p.count("kernel.syscalls", d.syscalls as f64);
            rows.push(d.row);
            p.time("obs.telemetry", || fleet_reg.merge(d.registry));
        }
        let fleet = p.time("obs.telemetry", || fleet_reg.snapshot());
        let completed = rows.iter().filter(|r| r.status == "completed").count() as u64;
        let evicted = rows
            .iter()
            .filter(|r| {
                ["denied", "seccomp", "faulted", "stalled", "compile-error"]
                    .iter()
                    .any(|s| r.status.starts_with(s))
            })
            .count() as u64;
        // FTP sessions are a different unit from requests and
        // transactions, so the request-latency metrics leave them out.
        let mut req = QuantileSketch::new();
        for (app, (_, sk)) in &per_app {
            if app != App::Ftpd.id() {
                req.merge(sk);
            }
        }
        let report = ServeReport {
            bench: "serve".to_string(),
            tenants: self.cfg.tenants as u64,
            seed: self.cfg.seed,
            quantum: self.cfg.quantum,
            admitted: rows.len() as u64,
            rejected,
            completed,
            evicted,
            total_requests: rows.iter().map(|r| r.served).sum(),
            total_bytes,
            total_turns: rows.iter().map(|r| r.turns).sum(),
            total_traps: rows.iter().map(|r| r.traps).sum(),
            total_denies: rows.iter().map(|r| r.denies).sum(),
            fleet_cycles: rows.iter().map(|r| r.cycles).sum(),
            request_latency: lane(fleet.sketch(REQUEST_CYCLES_SKETCH)),
            verify_latency: lane(fleet.sketch(VERIFY_CYCLES_SKETCH)),
            apps: per_app
                .into_iter()
                .map(|(app, (tenants, sk))| AppLane {
                    app,
                    tenants,
                    latency: LatencyLane {
                        count: sk.count(),
                        p50: sk.quantile(0.50),
                        p95: sk.quantile(0.95),
                        p99: sk.quantile(0.99),
                        p999: sk.quantile(0.999),
                    },
                })
                .collect(),
            rows,
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        let r = &report;
        p.count("kernel.traps", r.total_traps as f64);
        p.count("monitor.trace_vcycles", trace_cycles as f64);
        p.count("monitor.verify_vcycles_p99", r.verify_latency.p99 as f64);
        p.count("traffic.bytes", total_bytes as f64);
        p.count("serve.turns", r.total_turns as f64);
        let mean = shard_ms.iter().sum::<f64>() / shard_ms.len().max(1) as f64;
        let slowest = shard_ms.iter().copied().fold(0.0, f64::max);
        p.count(
            "fleet.shard_skew",
            if mean > 0.0 { slowest / mean } else { 0.0 },
        );
        let (attempted, failed) = failures(&r.rows);
        Replay {
            digest: digest(&report_json(r)),
            attempted,
            failed,
            wall_ms,
            virt: Virtual {
                vcycles_per_op: r.fleet_cycles as f64 / r.total_requests.max(1) as f64,
                req_vcycles_p50: req.quantile(0.50) as f64,
                req_vcycles_p99: req.quantile(0.99) as f64,
                vtime_overhead_pct: trace_share_pct(trace_cycles, r.fleet_cycles),
            },
        }
    }
}

/// Monitor tracing cycles as a percentage of the remaining virtual time.
pub fn trace_share_pct(trace: u64, total: u64) -> f64 {
    trace as f64 / total.saturating_sub(trace).max(1) as f64 * 100.0
}

fn counts(specs: &[TenantSpec]) -> [usize; 3] {
    let mut n = [0; 3];
    for s in specs {
        match s.kind {
            TenantKind::App(App::Webserve) => n[0] += 1,
            TenantKind::App(App::Dbkv) => n[1] += 1,
            TenantKind::App(App::Ftpd) => n[2] += 1,
            TenantKind::Custom { .. } => {}
        }
    }
    n
}

/// `(attempted, failed)` requests over a report's rows. A tenant must end
/// `completed` with every request served; otherwise its unserved requests
/// (at least one) count as failed.
pub fn failures(rows: &[TenantReport]) -> (u64, u64) {
    let attempted = rows.iter().map(|r| r.target).sum();
    let failed = rows
        .iter()
        .filter(|r| r.status != "completed" || r.served != r.target)
        .map(|r| r.target.saturating_sub(r.served).max(1))
        .sum();
    (attempted, failed)
}

fn report_json(r: &ServeReport) -> String {
    serde_json::to_string(r).expect("ServeReport serializes")
}

fn lane(s: Option<&SketchSnapshot>) -> LatencyLane {
    s.map_or_else(LatencyLane::default, |s| LatencyLane {
        count: s.count,
        p50: s.p50,
        p95: s.p95,
        p99: s.p99,
        p999: s.p999,
    })
}

/// Compiles each distinct program once (`compiler.compile`).
fn compile(specs: &[TenantSpec], p: &mut Profile) -> BTreeMap<String, Deployment> {
    let mut programs = BTreeMap::new();
    for spec in specs {
        let key = spec.kind.key();
        if programs.contains_key(&key) {
            continue;
        }
        let d = p.time("compiler.compile", || match &spec.kind {
            TenantKind::App(app) => {
                Deployment::from_module(app.module().expect("shipped app compiles"))
            }
            TenantKind::Custom { name, source } => Deployment::from_minic(name, &[source]),
        });
        programs.insert(key, d.expect("benchmark programs compile"));
    }
    programs
}

fn shard(specs: &[TenantSpec], jobs: usize) -> Vec<Vec<TenantSpec>> {
    if specs.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, specs.len());
    let (base, extra) = (specs.len() / jobs, specs.len() % jobs);
    let mut it = specs.iter().cloned();
    (0..jobs)
        .map(|i| it.by_ref().take(base + usize::from(i < extra)).collect())
        .collect()
}

struct Tenant {
    spec: TenantSpec,
    world: World,
    traffic: Option<Traffic>,
    registry: MetricsRegistry,
    turns: u64,
    parked: u64,
    stall: u32,
}

struct Done {
    row: TenantReport,
    bytes: u64,
    registry: MetricsRegistry,
    steps: u64,
    syscalls: u64,
    trace_cycles: u64,
}

fn run_shard(
    specs: &[TenantSpec],
    programs: &BTreeMap<String, Deployment>,
    cfg: &ServeConfig,
    traced: bool,
    p: &mut Profile,
) -> Vec<Done> {
    let mut done: BTreeMap<u32, Done> = BTreeMap::new();
    let mut queue: VecDeque<Tenant> = VecDeque::new();
    for spec in specs {
        let t = boot(spec, programs, cfg, traced, p);
        if t.world.alive_count() == 0 {
            let status = classify(&t.world);
            done.insert(spec.id, finalize(t, status, p));
        } else {
            queue.push_back(t);
        }
    }
    while let Some(mut t) = queue.pop_front() {
        let start = Instant::now();
        let finished = turn(&mut t, cfg.quantum, p);
        p.turn_us.push(start.elapsed().as_secs_f64() * 1e6);
        match finished {
            None => queue.push_back(t),
            Some(status) => {
                done.insert(t.spec.id, finalize(t, status, p));
            }
        }
    }
    specs
        .iter()
        .map(|s| done.remove(&s.id).expect("every tenant finalized"))
        .collect()
}

fn boot(
    spec: &TenantSpec,
    programs: &BTreeMap<String, Deployment>,
    cfg: &ServeConfig,
    traced: bool,
    p: &mut Profile,
) -> Tenant {
    let d = &programs[&spec.kind.key()];
    let mut world = d.world();
    if let TenantKind::App(app) = &spec.kind {
        p.time("apps.setup_vfs", || app.setup_vfs(&mut world));
    }
    let guard = p.time("obs.telemetry", || TelemetryGuard::enable(TURN_SPANS));
    p.time("boot.launch", || d.launch(&mut world, &Protection::full()));
    if traced {
        Timed::wrap(&mut world, &p.clock);
    }
    p.time("boot.run", || world.run(BOOT_BUDGET));
    p.count("boot.traps", world.trap_count as f64);
    let (_, registry) = p.time("obs.telemetry", || guard.finish());
    let traffic = match &spec.kind {
        TenantKind::App(app) if world.alive_count() > 0 => {
            Some(Traffic::for_app(*app, spec.requests, cfg.concurrency))
        }
        _ => None,
    };
    Tenant {
        spec: spec.clone(),
        world,
        traffic,
        registry,
        turns: 0,
        parked: 0,
        stall: 0,
    }
}

/// One scheduler quantum; `Some(status)` when the tenant is finished.
fn turn(t: &mut Tenant, quantum: u64, p: &mut Profile) -> Option<String> {
    let guard = p.time("obs.telemetry", || TelemetryGuard::enable(TURN_SPANS));
    let progressed = match t.traffic.as_mut() {
        Some(tr) => {
            p.count("traffic.pump_calls", 1.0);
            p.time("traffic.pump", || tr.pump(&mut t.world))
        }
        None => false,
    };
    let status = p.time("kernel.run", || t.world.run(quantum));
    if !progressed && status == RunStatus::Idle {
        // Nothing moved on either side: the turn was wasted.
        p.count("serve.wasted_turns", 1.0);
    }
    p.time("obs.telemetry", || {
        let (_, reg) = guard.finish();
        t.registry.merge(reg);
    });
    t.turns += 1;
    match status {
        RunStatus::AllExited => Some(classify(&t.world)),
        RunStatus::Budget => {
            t.stall = 0;
            None
        }
        RunStatus::Idle => {
            t.parked += 1;
            if t.traffic.as_ref().is_some_and(Traffic::done) {
                return Some("completed".to_string());
            }
            if progressed {
                t.stall = 0;
                None
            } else {
                t.stall += 1;
                (t.stall >= STALL_LIMIT).then(|| "stalled".to_string())
            }
        }
    }
}

fn classify(world: &World) -> String {
    for p in &world.procs {
        match &p.exit {
            Some(ExitReason::MonitorKill { nr, reason }) => {
                return format!("denied[{nr}:{reason}]")
            }
            Some(ExitReason::SeccompKill { nr }) => return format!("seccomp[{nr}]"),
            Some(ExitReason::Fault(_)) => return "faulted".to_string(),
            _ => {}
        }
    }
    match world.procs.first().and_then(|p| p.exit.as_ref()) {
        Some(ExitReason::Exited(c)) => format!("exited[{c}]"),
        _ => "exited".to_string(),
    }
}

fn finalize(mut t: Tenant, status: String, p: &mut Profile) -> Done {
    let w = &t.world;
    let (steps, syscalls, trace_cycles) = (w.steps, w.kernel.counts.values().sum(), w.trace_cycles);
    let (tier1_hits, denies) = chaos::monitor_report(&mut t.world)
        .map_or((0, 0), |(stats, log)| {
            (stats.prefilter_hits, log.len() as u64)
        });
    let snap = p.time("obs.telemetry", || t.registry.snapshot());
    let tr = t.traffic.as_ref();
    let row = TenantReport {
        id: t.spec.id,
        app: t.spec.kind.key(),
        status,
        served: tr.map_or(0, Traffic::served),
        target: tr.map_or(0, Traffic::target),
        turns: t.turns,
        parked: t.parked,
        cycles: t.world.now(),
        traps: t.world.trap_count,
        tier1_hits,
        denies,
        latency: lane(snap.sketch(REQUEST_CYCLES_SKETCH)),
    };
    Done {
        row,
        bytes: tr.map_or(0, Traffic::bytes),
        registry: t.registry,
        steps,
        syscalls,
        trace_cycles,
    }
}

/// Per-layer serve figures derived from the accumulated profile.
pub fn turn_quantiles(p: &Profile) -> (f64, f64) {
    let mut v = p.turn_us.clone();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.50), quantile(&v, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(status: &str, served: u64, target: u64) -> TenantReport {
        TenantReport {
            id: 0,
            app: "webserve".to_string(),
            status: status.to_string(),
            served,
            target,
            turns: 1,
            parked: 0,
            cycles: 1,
            traps: 0,
            tier1_hits: 0,
            denies: 0,
            latency: LatencyLane::default(),
        }
    }

    #[test]
    fn failure_counter_charges_evicted_and_stalled_tenants() {
        let rows = [
            row("completed", 24, 24),
            row("denied[59:CT]", 5, 24),
            row("stalled", 24, 24),
            row("completed", 3, 3),
        ];
        // 19 unserved by the evicted tenant, and at least one for the
        // stalled tenant even though its counter reached the target.
        assert_eq!(failures(&rows), (75, 20));
        assert_eq!(failures(&rows[..1]), (24, 0));
    }

    fn small() -> Serve {
        let mut s = Serve::rpc(7);
        s.cfg.tenants = 3;
        s.cfg.admission_capacity = 3;
        s.cfg.requests_per_tenant = 6;
        s.specs.truncate(3);
        for spec in &mut s.specs {
            spec.requests = 6;
        }
        s
    }

    #[test]
    fn replay_reports_match_the_public_entry_point_with_and_without_the_wrapper() {
        let s = small();
        let public = s.batch(1, &mut Stopwatch::uncalibrated());
        assert_eq!(public.failed, 0);
        let plain = s.replay(false, &mut Profile::default());
        let mut p = Profile::default();
        let timed = s.replay(true, &mut p);
        assert_eq!(plain.digest, public.digest);
        assert_eq!(timed.digest, public.digest);
        let [_, tier1_calls, _, _, tier2_calls, _] = p.monitor();
        assert!(tier1_calls + tier2_calls > 0.0, "the wrapper saw the traps");
    }

    #[test]
    fn mix_seed_has_exact_shares_per_half() {
        let s = Serve::mix(3, 2);
        assert_eq!(s.specs.len(), MIX_TENANTS);
        for half in s.specs.chunks(MIX_TENANTS / 2) {
            assert_eq!(counts(half), [6, 4, 2]);
        }
        assert_eq!(tenant_mix(&s.cfg).len(), s.specs.len());
    }
}
