//! Differential suite: the predecoded fast path and the legacy
//! tree-walking interpreter must be observably identical — same `Event`
//! streams, exit codes, virtual cycle totals, Table 6 verdicts, and app
//! benchmark results, bit for bit.
//!
//! The interpreter is selected per-world via the thread-local
//! [`bastion::kernel::set_thread_legacy_interp`] switch, so whole-stack
//! code paths (harness, attack scenarios) run unmodified on either engine.

use bastion::apps::App;
use bastion::attacks::{catalog, evaluate, ScenarioResult};
use bastion::compiler::BastionCompiler;
use bastion::harness::{run_app_benchmark, AppBenchmark, WorkloadSize};
use bastion::ir::build::ModuleBuilder;
use bastion::ir::{BinOp, CmpOp, Inst, IntrinsicOp, Module, Operand, Ty};
use bastion::kernel::LegacyInterpGuard;
use bastion::vm::{interp, CostModel, DecodedInst, Event, Fault, Image, Machine, MemIo};
use bastion::Protection;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs `f` with the thread-local legacy-interpreter default set; the RAII
/// guard restores the previous engine even if `f` panics, so one failing
/// differential test cannot poison the engine selection of whatever test
/// the harness schedules next on this thread.
fn on_legacy<T>(f: impl FnOnce() -> T) -> T {
    let _guard = LegacyInterpGuard::set(true);
    f()
}

fn assert_benchmarks_identical(fast: &AppBenchmark, legacy: &AppBenchmark) {
    assert_eq!(
        fast.metric.to_bits(),
        legacy.metric.to_bits(),
        "{:?}/{}: metric diverged: {} vs {}",
        fast.app,
        fast.protection,
        fast.metric,
        legacy.metric
    );
    assert_eq!(fast.cycles, legacy.cycles, "cycle totals diverged");
    assert_eq!(fast.steps, legacy.steps, "retired step counts diverged");
    assert_eq!(fast.trace_cycles, legacy.trace_cycles);
    assert_eq!(fast.traps, legacy.traps);
    assert_eq!(fast.syscall_counts, legacy.syscall_counts);
}

fn app_differential(app: App, protection: &Protection) {
    let size = WorkloadSize::quick();
    let compiler = BastionCompiler::new();
    let cost = CostModel::default();
    let fast = run_app_benchmark(app, protection, &size, &compiler, cost);
    let legacy = on_legacy(|| run_app_benchmark(app, protection, &size, &compiler, cost));
    assert_benchmarks_identical(&fast, &legacy);
}

#[test]
fn webserve_identical_on_both_interpreters() {
    app_differential(App::Webserve, &Protection::vanilla());
    app_differential(App::Webserve, &Protection::full());
}

#[test]
fn dbkv_identical_on_both_interpreters() {
    app_differential(App::Dbkv, &Protection::full());
}

#[test]
fn ftpd_identical_on_both_interpreters() {
    app_differential(App::Ftpd, &Protection::full());
}

fn assert_verdicts_identical(fast: &ScenarioResult, legacy: &ScenarioResult) {
    assert_eq!(
        fast.ground_truth, legacy.ground_truth,
        "#{} ground truth diverged",
        fast.id
    );
    assert_eq!(
        fast.full_blocked, legacy.full_blocked,
        "#{} full-BASTION verdict diverged",
        fast.id
    );
    assert_eq!(
        fast.observed, legacy.observed,
        "#{} context matrix diverged",
        fast.id
    );
    assert_eq!(fast.expected, legacy.expected);
}

fn table6_differential(ids: &[u32]) {
    let cat = catalog();
    for id in ids {
        let s = cat.iter().find(|s| s.id == *id).expect("scenario exists");
        let fast = evaluate(s);
        let legacy = on_legacy(|| evaluate(s));
        assert_verdicts_identical(&fast, &legacy);
    }
}

/// One scenario per Table 6 section, both engines (debug-budget subset).
#[test]
fn table6_representative_verdicts_identical() {
    table6_differential(&[1, 14, 19, 25, 32]);
}

/// The full 32-scenario matrix on both engines.
/// `cargo test --release --test differential -- --ignored`
#[test]
#[ignore = "full matrix is release-budget; run explicitly"]
fn table6_full_matrix_identical() {
    let all: Vec<u32> = catalog().iter().map(|s| s.id).collect();
    assert_eq!(all.len(), 32);
    table6_differential(&all);
}

// ---- random-IR step-for-step equivalence ----

/// Builds a random (but valid) module from fuzz bytes: forward-only
/// control flow over `nblocks` chained blocks, instructions drawn from the
/// whole menu (arithmetic incl. faulting div, loads/stores incl. wild
/// ones, calls, syscalls, intrinsics), so every interpreter path is
/// exercised.
fn random_module(nblocks: usize, ops: &[u8]) -> Module {
    let mut mb = ModuleBuilder::new("rand");
    let getpid = mb.declare_syscall_stub("getpid", 39, 0);
    let helper = mb.declare("helper", &[("x", Ty::I64)], Ty::I64);
    {
        let mut f = mb.define(helper);
        let a = f.frame_addr(f.param_slot(0));
        let v = f.load(a);
        let d = f.bin(BinOp::Mul, v, 3i64);
        f.ret(Some(d.into()));
        f.finish();
    }
    let mut f = mb.function("main", &[], Ty::I64);
    let la = f.local("a", Ty::I64);
    let lb = f.local("b", Ty::I64);
    let chain: Vec<_> = (1..nblocks).map(|_| f.new_block()).collect();
    let mut regs: Vec<bastion::ir::Reg> = Vec::new();
    let per_block = ops.len() / nblocks.max(1) + 1;
    let mut chunks = ops.chunks(per_block.max(1));
    for bi in 0..nblocks {
        let body = chunks.next().unwrap_or(&[]);
        for pair in body.chunks(2) {
            let (sel, arg) = (pair[0], *pair.get(1).unwrap_or(&0));
            let pick = |regs: &[bastion::ir::Reg]| -> Operand {
                if regs.is_empty() || arg & 1 == 0 {
                    Operand::Imm(i64::from(arg) - 64)
                } else {
                    regs[arg as usize % regs.len()].into()
                }
            };
            match sel % 13 {
                0 => regs.push(f.mov(i64::from(arg))),
                1 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Add, a, b));
                }
                2 => {
                    // May divide by zero: the fault path must agree too.
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Div, a, b));
                }
                3 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.cmp(CmpOp::Lt, a, b));
                }
                4 => {
                    let a = f.frame_addr(la);
                    let v = pick(&regs);
                    f.store(a, v);
                }
                5 => {
                    let a = f.frame_addr(lb);
                    regs.push(f.load(a));
                }
                6 => {
                    let base = f.frame_addr(la);
                    let idx = pick(&regs);
                    regs.push(f.index_addr(base, 8, idx));
                }
                7 => {
                    let v = pick(&regs);
                    regs.push(f.call_direct(helper, &[v]));
                }
                8 => regs.push(f.call_direct(getpid, &[])),
                9 => {
                    let (a, b) = (pick(&regs), pick(&regs));
                    regs.push(f.bin(BinOp::Shl, a, b));
                }
                10 => {
                    let a = f.frame_addr(la);
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxWriteMem {
                        addr: a.into(),
                        size: 8,
                    }));
                }
                11 => {
                    let a = f.frame_addr(lb);
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxBindMem {
                        pos: 1 + arg % 6,
                        addr: a.into(),
                    }));
                    f.emit(Inst::Intrinsic(IntrinsicOp::CtxBindConst {
                        pos: 1 + arg % 6,
                        value: i64::from(arg),
                    }));
                }
                _ => {
                    // Wild store: faults on unmapped memory on both paths.
                    let v = pick(&regs);
                    f.store(Operand::Imm(0x10 + i64::from(arg)), v);
                }
            }
        }
        if bi + 1 < nblocks {
            // Forward-only: terminates by construction.
            let next = chain[bi];
            let skip = chain[(bi + 1).min(chain.len() - 1)];
            if regs.is_empty() {
                f.jmp(next);
            } else {
                let c = regs[regs.len() - 1];
                f.br(c, next, skip);
            }
            f.switch_to(next);
        } else {
            let v = regs.last().map(|r| Operand::from(*r));
            f.ret(v);
        }
    }
    f.finish();
    mb.finish()
}

proptest! {
    /// Step-for-step equivalence: drive the legacy oracle one instruction
    /// at a time against `run_bounded(_, 1)` on an identical twin and
    /// insist on identical events, cycles, pc, and stack registers after
    /// every single step.
    #[test]
    fn random_ir_step_for_step_equivalence(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let mut legacy = Machine::new(img.clone(), CostModel::default());
        let mut fast = Machine::new(img, CostModel::default());
        for step_no in 0..50_000u32 {
            let ea = interp::step(&mut legacy);
            let (n, eb) = interp::run_bounded(&mut fast, 1);
            let eb = eb.unwrap_or(Event::Continue);
            prop_assert_eq!(n, 1);
            prop_assert_eq!(ea, eb, "event diverged at step {}", step_no);
            prop_assert_eq!(legacy.cycles, fast.cycles, "cycles diverged at step {}", step_no);
            prop_assert_eq!(legacy.pc, fast.pc, "pc diverged at step {}", step_no);
            prop_assert_eq!((legacy.sp, legacy.fp), (fast.sp, fast.fp));
            prop_assert_eq!(legacy.depth(), fast.depth());
            match ea {
                Event::Syscall { nr, .. } => {
                    prop_assert_eq!((legacy.trap_nr, legacy.trap_pc), (fast.trap_nr, fast.trap_pc));
                    let ret = u64::from(nr) + 7;
                    legacy.complete_syscall(ret);
                    fast.complete_syscall(ret);
                }
                Event::Exited(_) | Event::Fault(_) => break,
                Event::Continue => {}
            }
        }
        prop_assert_eq!(legacy.exited, fast.exited);
    }

    /// Burst-boundary equivalence: `run_bounded` with random step caps of
    /// 1..=8 against the legacy oracle stepped the same number of times.
    /// Small caps keep splitting the fused frame-slot superinstructions
    /// between their halves, so every boundary must land where the plain
    /// instruction stream would put it: same event, step count, cycles,
    /// pc and stack registers.
    #[test]
    fn random_ir_burst_boundaries_match_legacy(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
        caps in proptest::collection::vec(1u64..9, 1..32),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let mut legacy = Machine::new(img.clone(), CostModel::default());
        let mut fast = Machine::new(img, CostModel::default());
        let (mut legacy_steps, mut fast_steps) = (0u64, 0u64);
        for burst in 0..20_000usize {
            let cap = caps[burst % caps.len()];
            let (n, ef) = interp::run_bounded(&mut fast, cap);
            fast_steps += n;
            let mut el = None;
            let mut k = 0;
            while k < cap {
                k += 1;
                match interp::step(&mut legacy) {
                    Event::Continue => {}
                    e => {
                        el = Some(e);
                        break;
                    }
                }
            }
            legacy_steps += k;
            prop_assert_eq!(ef, el, "event diverged in burst {}", burst);
            prop_assert_eq!(fast_steps, legacy_steps, "steps diverged in burst {}", burst);
            prop_assert_eq!(legacy.cycles, fast.cycles, "cycles diverged in burst {}", burst);
            prop_assert_eq!(legacy.pc, fast.pc, "pc diverged in burst {}", burst);
            prop_assert_eq!((legacy.sp, legacy.fp), (fast.sp, fast.fp));
            match ef {
                Some(Event::Syscall { nr, .. }) => {
                    let ret = u64::from(nr) + 7;
                    legacy.complete_syscall(ret);
                    fast.complete_syscall(ret);
                }
                Some(_) => break,
                None => {}
            }
        }
        prop_assert_eq!(legacy.exited, fast.exited);
    }

    /// Whole-run equivalence through the event loop: both engines ride the
    /// module to completion and must agree on the final event and totals.
    #[test]
    fn random_ir_whole_run_equivalence(
        nblocks in 1usize..6,
        ops in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let module = random_module(nblocks, &ops);
        let img = Arc::new(Image::load(module).expect("random module validates"));
        let drive = |use_legacy: bool| {
            let mut m = Machine::new(img.clone(), CostModel::default());
            let mut events = Vec::new();
            loop {
                let out = if use_legacy {
                    interp::run_legacy(&mut m, 100_000)
                } else {
                    interp::run(&mut m, 100_000)
                };
                let e = out.event();
                events.push(e);
                match e {
                    Event::Syscall { nr, .. } => m.complete_syscall(u64::from(nr) + 7),
                    _ => break,
                }
            }
            (events, m.cycles, m.exited)
        };
        let (ev_l, cy_l, ex_l) = drive(true);
        let (ev_f, cy_f, ex_f) = drive(false);
        prop_assert_eq!(ev_l, ev_f);
        prop_assert_eq!(cy_l, cy_f);
        prop_assert_eq!(ex_l, ex_f);
    }
}

/// The memory half of a fused frame-slot load faults: a syscall stub's
/// saved frame pointer is smashed while it is trapped, so its `ret` hands
/// `main` a wild `fp`, and `main`'s next `FrameAddr`+`Load` pair reads
/// unmapped memory. Both engines must fault at the `Load` unit, with the
/// `FrameAddr` charged, the `Load` not, and the same steps retired.
#[test]
fn fused_frame_load_fault_matches_legacy() {
    let mut mb = ModuleBuilder::new("smashed_fp");
    let getpid = mb.declare_syscall_stub("getpid", 39, 0);
    let mut f = mb.function("main", &[], Ty::I64);
    let x = f.local("x", Ty::I64);
    let xa = f.frame_addr(x);
    f.store(xa, 5i64);
    let _ = f.call_direct(getpid, &[]);
    let xa2 = f.frame_addr(x);
    let v = f.load(xa2);
    f.ret(Some(v.into()));
    f.finish();
    let img = Arc::new(Image::load(mb.finish()).expect("module validates"));

    let wild_fp = 0xdead_0000u64;
    let run = |fast: bool| {
        let mut m = Machine::new(img.clone(), CostModel::default());
        let mut steps = 0u64;
        let mut drive = |m: &mut Machine| -> Event {
            if fast {
                let (n, e) = interp::run_bounded(m, 1_000);
                steps += n;
                e.expect("event within budget")
            } else {
                loop {
                    steps += 1;
                    match interp::step(m) {
                        Event::Continue => {}
                        e => return e,
                    }
                }
            }
        };
        assert!(matches!(drive(&mut m), Event::Syscall { nr: 39, .. }));
        // The stub's frame: `[fp]` is main's saved frame pointer.
        m.mem.write_u64(m.fp, wild_fp).expect("stack mapped");
        m.complete_syscall(1);
        let e = drive(&mut m);
        (e, m.pc, m.cycles, steps, m.fp)
    };
    let legacy = run(false);
    let fast = run(true);
    assert!(
        matches!(legacy.0, Event::Fault(Fault::Mem(e)) if !e.write),
        "legacy did not fault on the load: {:?}",
        legacy.0
    );
    assert_eq!(legacy.4, wild_fp);
    assert_eq!(fast, legacy);
    // The fault is on the plain Load unit that follows the fused one.
    let unit = img.decoded.unit_of_addr(img.layout.addr_of(fast.1).raw());
    assert!(matches!(img.decoded.inst(unit), DecodedInst::Load { .. }));
    assert!(matches!(
        img.decoded.inst(unit - 1),
        DecodedInst::FrameLoad { .. }
    ));
}
