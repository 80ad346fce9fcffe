//! `attack-matrix`: the 32-scenario Table 6 catalog × 7 fault classes ×
//! seeded fault seeds, warm-forked from one checkpoint per scenario.
//!
//! The untraced batch is the public entry point (`attack_chaos_mode`).
//! The replay stages the same cells through `AttackEnv::deploy` /
//! `checkpoint` / `restore`, the scenario closures and `chaos_schedules`,
//! and must produce byte-identical cell reports.

use crate::calib::Stopwatch;
use crate::profile::{Profile, Timed};
use crate::serve::trace_share_pct;
use crate::{digest, quantile, splitmix, Batch, Replay, Virtual};
use bastion::attacks::env::DeployCheckpoint;
use bastion::attacks::{catalog, AttackEnv, RunOutcome, Scenario};
use bastion::chaos::{chaos_schedules, monitor_report};
use bastion::kernel::{FaultSchedule, LegacyInterpGuard};
use bastion::monitor::ContextConfig;
use bastion::obs::{QuantileSketch, TelemetryGuard};
use bastion::serve::VERIFY_CYCLES_SKETCH;
use bastion::{attack_chaos_mode, AttackChaosReport};
use std::time::Instant;

/// Fault seeds per scenario and fault class.
const FAULT_SEEDS: usize = 3;

/// One attack-matrix workload: the catalog and the seeded fault seeds.
pub struct Attack {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
}

impl Attack {
    /// The whole catalog under fault seeds drawn from `seed`.
    pub fn new(seed: u64) -> Attack {
        let mut s = seed;
        Attack {
            scenarios: catalog(),
            seeds: (0..FAULT_SEEDS).map(|_| splitmix(&mut s)).collect(),
        }
    }

    #[cfg(test)]
    fn only(mut self, id: u32) -> Attack {
        self.scenarios.retain(|s| s.id == id);
        self
    }

    fn deploy(scenario: &Scenario) -> AttackEnv {
        AttackEnv::deploy(
            scenario.victim,
            Some(ContextConfig::full()),
            scenario.extended_set,
            false,
        )
    }

    /// One set-up: deploy and checkpoint every scenario's victim.
    pub fn setup(&self) -> f64 {
        let _interp = LegacyInterpGuard::set(false);
        let t = Instant::now();
        let checkpoints: Vec<DeployCheckpoint> = self
            .scenarios
            .iter()
            .map(|s| Self::deploy(s).checkpoint())
            .collect();
        let secs = t.elapsed().as_secs_f64();
        drop(checkpoints);
        secs
    }

    /// The public entry point, scenario by scenario on one worker.
    pub fn batch(&self, sw: &mut Stopwatch) -> Batch {
        let _interp = LegacyInterpGuard::set(false);
        let reports: Vec<AttackChaosReport> = sw.time(|| {
            self.scenarios
                .iter()
                .flat_map(|s| attack_chaos_mode(s, ContextConfig::full(), &self.seeds, false))
                .collect()
        });
        Batch {
            ops: reports.len() as u64,
            attempted: reports.len() as u64,
            failed: failures(&reports),
            digest: digest(&format!("{reports:?}")),
        }
    }

    /// Replays every cell with spans around each layer.
    pub fn replay(&self, traced: bool, p: &mut Profile) -> Replay {
        let _interp = LegacyInterpGuard::set(false);
        let wall = Instant::now();
        let mut reports = Vec::new();
        // Faulted cells' virtual cycles depend on the fault seed; the
        // fault-free calibration cell of each scenario does not, so the
        // exact virtual metrics are taken over those.
        let mut clean_cycles = Vec::new();
        let (mut cycles, mut trace) = (0u64, 0u64);
        let mut verify = QuantileSketch::new();
        for scenario in &self.scenarios {
            let mut env = p.time("attacks.deploy", || Self::deploy(scenario));
            p.count("vm.steps", env.world.steps as f64);
            if traced {
                Timed::wrap(&mut env.world, &p.clock);
            }
            let ck = p.time("snapshot.checkpoint", || env.checkpoint());
            drop(env);
            let clean = cell(scenario, &ck, None, p);
            clean_cycles.push(clean.cycles);
            cycles += clean.cycles;
            trace += clean.trace_cycles;
            for &seed in &self.seeds {
                for (label, schedule) in chaos_schedules(seed, clean.traps) {
                    let mut c = cell(scenario, &ck, Some(schedule), p);
                    c.report.schedule = label;
                    c.report.seed = seed;
                    c.report.clean_traps = clean.traps;
                    verify.merge(&c.verify);
                    reports.push(c.report);
                }
            }
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        clean_cycles.sort_unstable();
        let sorted: Vec<f64> = clean_cycles.iter().map(|&c| c as f64).collect();
        p.count("monitor.verify_vcycles_p99", verify.quantile(0.99) as f64);
        Replay {
            digest: digest(&format!("{reports:?}")),
            attempted: reports.len() as u64,
            failed: failures(&reports),
            wall_ms,
            virt: Virtual {
                vcycles_per_op: cycles as f64 / clean_cycles.len().max(1) as f64,
                req_vcycles_p50: quantile(&sorted, 0.50),
                req_vcycles_p99: quantile(&sorted, 0.99),
                vtime_overhead_pct: trace_share_pct(trace, cycles),
            },
        }
    }
}

/// Cells whose attack effect landed or whose deny records lack a flight
/// dump.
pub fn failures(reports: &[AttackChaosReport]) -> u64 {
    reports
        .iter()
        .filter(|r| !r.attack_contained() || !r.denies_carry_flight())
        .count() as u64
}

struct Cell {
    /// The cell's report, schedule fields left for the caller.
    report: AttackChaosReport,
    /// Traps since the schedule was installed (calibrates the window).
    traps: u64,
    cycles: u64,
    trace_cycles: u64,
    verify: QuantileSketch,
}

/// Runs `scenario.attack`, absorbing any panic as a staging failure. The
/// public `attack_chaos_mode` absorbs only the attack scripts' liveness
/// panics and re-raises the rest, so any other panic already ended the
/// run in the untraced batch that every replay is compared against.
fn stage(scenario: &Scenario, env: &mut AttackEnv) -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (scenario.attack)(env)));
    std::panic::set_hook(hook);
    r.is_ok()
}

fn cell(
    scenario: &Scenario,
    ck: &DeployCheckpoint,
    schedule: Option<FaultSchedule>,
    p: &mut Profile,
) -> Cell {
    let calibration = schedule.is_none();
    let mut env = p.time("snapshot.restore", || AttackEnv::restore(ck));
    p.count("snapshot.restores", 1.0);
    let w = &env.world;
    let (cycles0, trace0, steps0, traps0) = (w.now(), w.trace_cycles, w.steps, w.trap_count);
    let syscalls0: u64 = w.kernel.counts.values().sum();
    env.world
        .install_faults(schedule.unwrap_or_else(|| FaultSchedule::new(0)));
    let guard = p.time("obs.telemetry", || TelemetryGuard::enable(64));
    let staged = p.time("attacks.stage", || stage(scenario, &mut env));
    p.time("kernel.run", || env.settle());
    let succeeded = staged && p.time("attacks.stage", || (scenario.success)(&env));
    let (_, registry) = p.time("obs.telemetry", || guard.finish());
    let outcome = RunOutcome {
        defense: env.defense_fired(),
        succeeded,
    };
    let w = &env.world;
    p.count("vm.steps", (w.steps - steps0) as f64);
    p.count("kernel.traps", (w.trap_count - traps0) as f64);
    p.count(
        "kernel.syscalls",
        (w.kernel.counts.values().sum::<u64>() - syscalls0) as f64,
    );
    let (cycles, trace_cycles) = (w.now() - cycles0, w.trace_cycles - trace0);
    p.count("monitor.trace_vcycles", trace_cycles as f64);
    let traps = w.fault_trap_count();
    let faults = w.fault_log();
    let flight_dumps = w.flight_dumps().to_vec();
    if !calibration {
        p.count("faults.fired", faults.len() as f64);
    }
    let (stats, deny_records) = match monitor_report(&mut env.world) {
        Some((s, d)) => (Some(s), d),
        None => (None, Vec::new()),
    };
    let fault_deny_joins = faults
        .iter()
        .filter(|f| deny_records.iter().any(|d| d.trap_seq == f.world_trap))
        .map(|f| (f.world_trap, f.class.label()))
        .collect();
    let mut verify = QuantileSketch::new();
    if let Some(sk) = registry.sketch(VERIFY_CYCLES_SKETCH) {
        verify.merge(sk);
    }
    Cell {
        report: AttackChaosReport {
            id: scenario.id,
            name: scenario.name.clone(),
            schedule: "",
            seed: 0,
            clean_traps: 0,
            faults_fired: faults.len() as u64,
            outcome,
            stats,
            deny_records,
            fault_deny_joins,
            flight_dumps,
        },
        traps,
        cycles,
        trace_cycles,
        verify,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_cells_match_attack_chaos_with_and_without_the_wrapper() {
        let a = Attack::new(11).only(1);
        let public = a.batch(&mut Stopwatch::uncalibrated());
        assert_eq!(public.ops, 7 * FAULT_SEEDS as u64);
        assert_eq!(public.failed, 0);
        let plain = a.replay(false, &mut Profile::default());
        let mut p = Profile::default();
        let timed = a.replay(true, &mut p);
        assert_eq!(plain.digest, public.digest);
        assert_eq!(timed.digest, public.digest);
        assert!(p.monitor()[4] > 0.0, "the wrapper saw tier-2 traps");
        assert!(
            p.get("snapshot.restores") > 0.0,
            "checkpoints work under the wrapper"
        );
    }
}
