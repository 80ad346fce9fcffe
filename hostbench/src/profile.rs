//! Host-time accounting for the traced run: a timing wrapper around the
//! monitor's [`Tracer`] trait object and per-layer self-time accumulators
//! filled from spans the benchmark opens around public calls.

use bastion::kernel::{Pid, PrefilterVerdict, TraceVerdict, Tracee, Tracer, World};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monitor callback totals, shared by every wrapper cloned from one
/// original (checkpoints clone the tracer). Plain statistics, so the
/// atomics publish nothing else and `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct MonitorClock {
    tier1_ns: AtomicU64,
    tier1_calls: AtomicU64,
    tier1_hits: AtomicU64,
    tier2_ns: AtomicU64,
    tier2_calls: AtomicU64,
    denies: AtomicU64,
}

impl MonitorClock {
    /// Host nanoseconds spent inside tier-1 and tier-2 callbacks so far.
    pub fn monitor_ns(&self) -> u64 {
        self.tier1_ns.load(Ordering::Relaxed) + self.tier2_ns.load(Ordering::Relaxed)
    }

    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Forwards every [`Tracer`] hook to the wrapped monitor and times the two
/// that do verification work: `prefilter` (tier 1) and `on_trap` (tier 2).
pub struct Timed {
    inner: Box<dyn Tracer>,
    clock: Arc<MonitorClock>,
}

impl Timed {
    /// Replaces the world's tracer with a timed wrapper around it. A world
    /// without a tracer (an unprotected run) is left alone.
    pub fn wrap(world: &mut World, clock: &Arc<MonitorClock>) {
        if let Some(inner) = world.take_tracer() {
            world.attach_tracer(Box::new(Timed {
                inner,
                clock: clock.clone(),
            }));
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer for Timed {
    fn on_trap(&mut self, tracee: &mut Tracee<'_>) -> TraceVerdict {
        let t = Instant::now();
        let v = self.inner.on_trap(tracee);
        MonitorClock::add(&self.clock.tier2_ns, elapsed_ns(t));
        MonitorClock::add(&self.clock.tier2_calls, 1);
        if matches!(v, TraceVerdict::Deny(_)) {
            MonitorClock::add(&self.clock.denies, 1);
        }
        v
    }

    fn prefilter(&mut self, tracee: &mut Tracee<'_>, faults_installed: bool) -> PrefilterVerdict {
        let t = Instant::now();
        let v = self.inner.prefilter(tracee, faults_installed);
        MonitorClock::add(&self.clock.tier1_ns, elapsed_ns(t));
        MonitorClock::add(&self.clock.tier1_calls, 1);
        if matches!(v, PrefilterVerdict::Allow) {
            MonitorClock::add(&self.clock.tier1_hits, 1);
        }
        v
    }

    fn on_fork(&mut self, parent: Pid, child: Pid) {
        self.inner.on_fork(parent, child);
    }

    fn flow_word(&self, pid: Pid) -> u64 {
        self.inner.flow_word(pid)
    }

    fn ladder_rung(&self) -> u8 {
        self.inner.ladder_rung()
    }

    // Forwarded so `chaos::monitor_report` still downcasts to `Monitor`.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn snapshot_box(&self) -> Option<Box<dyn Tracer>> {
        self.inner.snapshot_box().map(|inner| {
            Box::new(Timed {
                inner,
                clock: self.clock.clone(),
            }) as Box<dyn Tracer>
        })
    }
}

/// Per-layer self times (monitor callbacks excluded) and counts of one
/// replay.
#[derive(Debug, Default)]
pub struct Profile {
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    /// Shared with every [`Timed`] wrapper the replay attaches.
    pub clock: Arc<MonitorClock>,
    /// Host microseconds of every supervisor turn.
    pub turn_us: Vec<f64>,
}

impl Profile {
    /// Runs `f` and adds its duration, minus the monitor time inside it,
    /// to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let mon = self.clock.monitor_ns();
        let t = Instant::now();
        let r = f();
        let total = elapsed_ns(t);
        let inside = self.clock.monitor_ns() - mon;
        *self.ms.entry(layer).or_default() += total.saturating_sub(inside) as f64 / 1e6;
        r
    }

    /// Adds to a count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// A layer's self time so far (0 when never opened).
    pub fn ms(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }

    /// A count so far (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every layer's self time plus the monitor's time: the part of
    /// the wall time some layer accounts for.
    pub fn attributed_ms(&self) -> f64 {
        self.ms.values().sum::<f64>() + self.clock.monitor_ns() as f64 / 1e6
    }

    /// Tier-1 and tier-2 totals: `(tier1_ms, tier1_calls, tier1_hits,
    /// tier2_ms, tier2_calls, denies)`.
    pub fn monitor(&self) -> [f64; 6] {
        let c = &self.clock;
        [
            MonitorClock::get(&c.tier1_ns) as f64 / 1e6,
            MonitorClock::get(&c.tier1_calls) as f64,
            MonitorClock::get(&c.tier1_hits) as f64,
            MonitorClock::get(&c.tier2_ns) as f64 / 1e6,
            MonitorClock::get(&c.tier2_calls) as f64,
            MonitorClock::get(&c.denies) as f64,
        ]
    }
}
