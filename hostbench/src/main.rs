//! End-to-end and per-layer host-time benchmark for the BASTION
//! reproduction. See `README.md` next to this package for the metrics,
//! the workloads and the first traced profile.
//!
//! ```text
//! bastion-hostbench --workload <serve-mix|serve-rpc|attack-matrix|paper-fig3>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the public entry points and prints the
//! end-to-end metrics; with `--trace 1` it replays the same work through
//! public functions with spans around each layer and prints the
//! per-layer metrics. The last line of standard output is one JSON object.

mod attack;
mod calib;
mod fig3;
mod profile;
mod serve;

use calib::Stopwatch;
use profile::Profile;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Public-entry-point batches measured at least, however short `--seconds`.
const MIN_BATCHES: usize = 3;

/// One timed call of a workload's public entry point.
pub struct Batch {
    /// Ops completed.
    pub ops: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their output check.
    pub failed: u64,
    /// Digest of the call's full report.
    pub digest: u64,
}

/// The deterministic virtual-time figures of a workload.
pub struct Virtual {
    pub vcycles_per_op: f64,
    pub req_vcycles_p50: f64,
    pub req_vcycles_p99: f64,
    pub vtime_overhead_pct: f64,
}

/// One replay of a workload through public functions.
pub struct Replay {
    /// Digest of the replay's report; must equal the public batch's.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Host milliseconds of the whole replay.
    pub wall_ms: f64,
    pub virt: Virtual,
}

enum Workload {
    Serve(serve::Serve),
    Attack(attack::Attack),
    Fig3,
}

impl Workload {
    fn new(name: &str, seed: u64, nproc: usize) -> Option<Workload> {
        Some(match name {
            "serve-mix" => Workload::Serve(serve::Serve::mix(seed, serve::MIX_WORKERS.min(nproc))),
            "serve-rpc" => Workload::Serve(serve::Serve::rpc(seed)),
            "attack-matrix" => Workload::Attack(attack::Attack::new(seed)),
            "paper-fig3" => Workload::Fig3,
            _ => return None,
        })
    }

    /// Fleet workers of the untraced run.
    fn jobs(&self) -> usize {
        match self {
            Workload::Serve(s) => s.jobs(),
            _ => 1,
        }
    }

    /// Set-ups timed before each batch; the median is reported. The
    /// three-app compile takes milliseconds, so it repeats more.
    fn setups_per_batch(&self) -> usize {
        match self {
            Workload::Fig3 => 5,
            _ => 1,
        }
    }

    fn setup(&self) -> f64 {
        match self {
            Workload::Serve(s) => s.setup(),
            Workload::Attack(a) => a.setup(),
            Workload::Fig3 => fig3::setup(),
        }
    }

    fn batch(&self, jobs: usize, sw: &mut Stopwatch) -> Batch {
        match self {
            Workload::Serve(s) => s.batch(jobs, sw),
            Workload::Attack(a) => a.batch(sw),
            Workload::Fig3 => fig3::batch(sw),
        }
    }

    fn replay(&self, traced: bool, p: &mut Profile) -> Replay {
        match self {
            Workload::Serve(s) => s.replay(traced, p),
            Workload::Attack(a) => a.replay(traced, p),
            Workload::Fig3 => fig3::replay(traced, p),
        }
    }
}

/// A stable 64-bit digest of a report's text (equal texts, equal digests).
pub fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The `q` quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// splitmix64: the benchmark's seed expander.
pub fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's peak resident set in MiB (`VmHWM`), where the platform
/// reports one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, op accounting and named metrics.
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Untraced run: one warm-up set-up and call, then set-ups and calls
/// interleaved so both sample the same stretch of host time, for
/// `seconds`; then one untimed replay for the virtual figures the public
/// reports do not carry, checked against the warm-up call. Host times are
/// calibrated (see `calib`); the raw medians go to a `#` line.
fn untraced(w: &Workload, seconds: u64) -> Result<Output, String> {
    // The warm-up lets lazy allocation settle before timing. It is checked
    // like every call, and the workload's peak memory is read after it,
    // before any calibration pass allocates.
    for _ in 0..w.setups_per_batch() {
        w.setup();
    }
    let first = w.batch(w.jobs(), &mut Stopwatch::uncalibrated());
    let rss = peak_rss_mb().ok_or("peak_rss_mb unavailable: no VmHWM in /proc/self/status")?;
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let mut sw = Stopwatch::new(w.jobs());
    let (mut setups, mut raw_setups, mut rates, mut raw_rates) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while rates.len() < MIN_BATCHES || start.elapsed() < Duration::from_secs(seconds) {
        for _ in 0..w.setups_per_batch() {
            let s = w.setup();
            raw_setups.push(s);
            setups.push(sw.record(s));
        }
        let (raw, scaled) = (sw.raw, sw.scaled);
        let b = w.batch(w.jobs(), &mut sw);
        rates.push(b.ops as f64 / (sw.scaled - scaled));
        raw_rates.push(b.ops as f64 / (sw.raw - raw));
        attempted += b.attempted;
        // A call whose report differs from the warm-up's is not
        // deterministic: every op in it counts as failed.
        failed += if b.digest == first.digest {
            b.failed
        } else {
            b.attempted
        };
    }
    let replay = w.replay(false, &mut Profile::default());
    let parity = replay.digest == first.digest;
    if !parity {
        eprintln!("replay report differs from the public entry point's");
    }
    println!(
        "# raw ops_per_s={} raw setup_s={} calibration_ms={} batches={}",
        median(raw_rates),
        median(raw_setups),
        median(sw.passes) * 1e3,
        rates.len()
    );
    let v = &replay.virt;
    Ok(Output {
        correct: failed == 0 && replay.failed == 0 && parity,
        attempted,
        failed,
        metrics: vec![
            ("ops_per_s", median(rates), "1/s"),
            ("setup_s", median(setups), "s"),
            ("peak_rss_mb", rss, "MiB"),
            ("vcycles_per_op", v.vcycles_per_op, "vcycles"),
            ("req_vcycles_p50", v.req_vcycles_p50, "vcycles"),
            ("req_vcycles_p99", v.req_vcycles_p99, "vcycles"),
            ("vtime_overhead_pct", v.vtime_overhead_pct, "%"),
        ],
    })
}

/// Traced run: pairs of (public batch on one worker, traced replay) until
/// `seconds` pass. Layer figures are per replay.
fn traced(w: &Workload, seconds: u64) -> Output {
    let mut p = Profile::default();
    let start = Instant::now();
    let (mut pairs, mut attempted, mut failed) = (0u32, 0, 0);
    let mut traced_ms = 0.0;
    let mut parity = true;
    let mut sw = Stopwatch::uncalibrated();
    while pairs == 0 || start.elapsed() < Duration::from_secs(seconds) {
        let b = w.batch(1, &mut sw);
        let r = w.replay(true, &mut p);
        parity &= r.digest == b.digest;
        attempted += b.attempted + r.attempted;
        failed += b.failed + r.failed;
        traced_ms += r.wall_ms;
        pairs += 1;
    }
    let untraced_ms = sw.raw * 1e3;
    if !parity {
        eprintln!("traced replay report differs from the public entry point's");
    }
    let n = f64::from(pairs);
    let [t1_ms, t1_calls, t1_hits, t2_ms, t2_calls, denies] = p.monitor();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let steps = p.get("vm.steps");
    let run_ms = p.ms("kernel.run")
        + p.ms("boot.run")
        + p.ms("loadgen")
        + p.ms("attacks.stage")
        + p.ms("attacks.deploy");
    let (turn_p50, turn_p99) = serve::turn_quantiles(&p);
    let per = |v: f64| v / n;
    let metrics = vec![
        ("compiler.compile_ms", per(p.ms("compiler.compile")), "ms"),
        ("apps.setup_vfs_ms", per(p.ms("apps.setup_vfs")), "ms"),
        ("boot.launch_ms", per(p.ms("boot.launch")), "ms"),
        ("boot.run_ms", per(p.ms("boot.run")), "ms"),
        ("boot.traps", per(p.get("boot.traps")), "count"),
        ("kernel.run_ms", per(p.ms("kernel.run")), "ms"),
        ("vm.steps", per(steps), "count"),
        ("vm.steps_per_s", ratio(steps, run_ms / 1e3), "1/s"),
        ("kernel.syscalls", per(p.get("kernel.syscalls")), "count"),
        ("kernel.traps", per(p.get("kernel.traps")), "count"),
        ("monitor.tier1_ms", per(t1_ms), "ms"),
        ("monitor.tier1_calls", per(t1_calls), "count"),
        ("monitor.tier1_hit_ratio", ratio(t1_hits, t1_calls), "ratio"),
        ("monitor.tier2_ms", per(t2_ms), "ms"),
        ("monitor.tier2_calls", per(t2_calls), "count"),
        ("monitor.denies", per(denies), "count"),
        (
            "monitor.vcycles_per_trap",
            ratio(p.get("monitor.trace_vcycles"), p.get("kernel.traps")),
            "vcycles",
        ),
        (
            "monitor.verify_vcycles_p99",
            per(p.get("monitor.verify_vcycles_p99")),
            "vcycles",
        ),
        ("traffic.pump_ms", per(p.ms("traffic.pump")), "ms"),
        (
            "traffic.pump_calls",
            per(p.get("traffic.pump_calls")),
            "count",
        ),
        ("traffic.bytes", per(p.get("traffic.bytes")), "bytes"),
        (
            "loadgen.ms",
            per(p.ms("loadgen") + p.get("loadgen.monitor_ms")),
            "ms",
        ),
        ("loadgen.monitor_ms", per(p.get("loadgen.monitor_ms")), "ms"),
        ("serve.turns", per(p.get("serve.turns")), "count"),
        (
            "serve.useful_turn_ratio",
            ratio(
                p.get("serve.turns") - p.get("serve.wasted_turns"),
                p.get("serve.turns"),
            ),
            "ratio",
        ),
        ("serve.turn_us_p50", turn_p50, "us"),
        ("serve.turn_us_p99", turn_p99, "us"),
        ("obs.telemetry_ms", per(p.ms("obs.telemetry")), "ms"),
        ("fleet.shard_skew", per(p.get("fleet.shard_skew")), "ratio"),
        ("attacks.deploy_ms", per(p.ms("attacks.deploy")), "ms"),
        (
            "snapshot.checkpoint_ms",
            per(p.ms("snapshot.checkpoint")),
            "ms",
        ),
        ("snapshot.restore_ms", per(p.ms("snapshot.restore")), "ms"),
        (
            "snapshot.restores",
            per(p.get("snapshot.restores")),
            "count",
        ),
        ("attacks.stage_ms", per(p.ms("attacks.stage")), "ms"),
        ("faults.fired", per(p.get("faults.fired")), "count"),
        ("trace.wall_ms", per(traced_ms), "ms"),
        (
            "trace.overhead_pct",
            (ratio(traced_ms, untraced_ms) - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.unattributed_pct",
            ratio(traced_ms - p.attributed_ms(), traced_ms) * 100.0,
            "%",
        ),
    ];
    Output {
        correct: failed == 0 && parity,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(w) = Workload::new(&args.workload, args.seed, nproc) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.jobs()
    );
    let out = if args.trace {
        traced(&w, args.seconds)
    } else {
        match untraced(&w, args.seconds) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{}", out.json());
    ExitCode::SUCCESS
}
