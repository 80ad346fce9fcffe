//! The one construction path for a protected world: compile a program
//! under the BASTION pass, load it, spawn it hardened, and attach the
//! monitor — the paper's deployment (§1: module pass + seccomp/ptrace
//! monitor) as a single API.

use crate::protection::Protection;
use bastion_compiler::{BastionCompiler, ContextMetadata};
use bastion_kernel::{Pid, World};
use bastion_vm::{CostModel, Image, Machine};
use std::fmt;
use std::sync::Arc;

/// Any pipeline error.
#[derive(Debug)]
pub enum Error {
    /// MiniC front-end failure.
    Front(bastion_minic::FrontError),
    /// IR validation failure.
    Validate(bastion_ir::ValidateError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "front-end: {e}"),
            Error::Validate(e) => write!(f, "validation: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<bastion_minic::FrontError> for Error {
    fn from(e: bastion_minic::FrontError) -> Self {
        Error::Front(e)
    }
}

impl From<bastion_ir::ValidateError> for Error {
    fn from(e: bastion_ir::ValidateError) -> Self {
        Error::Validate(e)
    }
}

/// A program compiled (usually under BASTION) and ready to launch.
///
/// Holds the loaded image and, when instrumented, the context metadata;
/// launching installs the seccomp filter and attaches the runtime monitor
/// according to the chosen [`Protection`].
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The loaded program image (instrumented unless built by
    /// [`Deployment::uninstrumented`]).
    pub image: Arc<Image>,
    /// The compiler-generated context metadata; `None` for an
    /// uninstrumented baseline image.
    pub metadata: Option<ContextMetadata>,
    /// Cost model used for machines and worlds.
    pub cost: CostModel,
}

impl Deployment {
    /// Compiles MiniC sources (libc prelude included) under the default
    /// sensitive set.
    ///
    /// # Errors
    /// Propagates front-end and validation errors.
    pub fn from_minic(name: &str, sources: &[&str]) -> Result<Self, Error> {
        let module = bastion_minic::compile_program(name, sources)?;
        Self::from_module(module)
    }

    /// Compiles an IR module under the default sensitive set.
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn from_module(module: bastion_ir::Module) -> Result<Self, Error> {
        Self::with_compiler(module, &BastionCompiler::new())
    }

    /// Compiles with an explicit compiler configuration (e.g. the Table 7
    /// extended sensitive set).
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn with_compiler(
        module: bastion_ir::Module,
        compiler: &BastionCompiler,
    ) -> Result<Self, Error> {
        let out = compiler.compile(module)?;
        let image = Arc::new(Image::load(out.module)?);
        Ok(Deployment {
            image,
            metadata: Some(out.metadata),
            cost: CostModel::default(),
        })
    }

    /// Loads `module` as-is, without the BASTION pass — the binary the
    /// paper's baseline columns (vanilla, LLVM CFI, CET) run. It can only
    /// launch under a protection without a monitor.
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn uninstrumented(module: bastion_ir::Module) -> Result<Self, Error> {
        Ok(Deployment {
            image: Arc::new(Image::load(module)?),
            metadata: None,
            cost: CostModel::default(),
        })
    }

    /// Overrides the cost model (e.g. the §11.2 in-kernel monitor ablation).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// A fresh world with this deployment's cost model.
    pub fn world(&self) -> World {
        World::new(self.cost)
    }

    /// Spawns the program in `world` with the given protection: applies
    /// CET / LLVM-CFI hardening to the machine, and (when configured)
    /// installs the BASTION seccomp filter and monitor.
    ///
    /// # Panics
    /// Panics if `protection` attaches a monitor to an uninstrumented
    /// deployment: there is no metadata to verify against.
    pub fn launch(&self, world: &mut World, protection: &Protection) -> Pid {
        let mut machine = Machine::new(self.image.clone(), self.cost);
        protection.hardening.apply(&mut machine);
        let pid = world.spawn(machine);
        if let Some(cfg) = protection.monitor {
            let md = self
                .metadata
                .as_ref()
                .expect("a monitored protection needs an instrumented deployment");
            crate::protect(world, pid, &self.image, md, cfg);
        }
        pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bastion_kernel::ExitReason;

    #[test]
    fn deployment_pipeline_end_to_end() {
        let d = Deployment::from_minic("t", &["long main() { return getpid(); }"]).unwrap();
        let mut world = d.world();
        let pid = d.launch(&mut world, &Protection::full());
        world.run(10_000_000);
        // getpid is not sensitive: allowed without a trap.
        assert_eq!(world.trap_count, 0);
        let p = world.proc(pid).unwrap();
        assert_eq!(p.exit, Some(ExitReason::Exited(1)));
    }

    #[test]
    fn vanilla_launch_has_no_monitor() {
        let d = Deployment::from_minic("t", &["long main() { return 0; }"]).unwrap();
        let mut world = d.world();
        let pid = d.launch(&mut world, &Protection::vanilla());
        world.run(10_000_000);
        assert!(world.proc(pid).unwrap().seccomp.is_none());
    }

    #[test]
    fn sensitive_syscall_traps_under_full_protection() {
        let d = Deployment::from_minic("t", &["long main() { return socket(2, 1, 0); }"]).unwrap();
        let mut world = d.world();
        let pid = d.launch(&mut world, &Protection::full());
        world.run(10_000_000);
        assert_eq!(world.trap_count, 1);
        let p = world.proc(pid).unwrap();
        assert!(matches!(p.exit, Some(ExitReason::Exited(_))));
    }

    #[test]
    fn uninstrumented_deployment_runs_bare_and_refuses_a_monitor() {
        let src = "long main() { return socket(2, 1, 0) > 0; }";
        let module = bastion_minic::compile_program("t", &[src]).unwrap();
        let intrinsics = |d: &Deployment| {
            d.image
                .module
                .functions
                .iter()
                .flat_map(|f| &f.blocks)
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, bastion_ir::Inst::Intrinsic(_)))
                .count()
        };
        let instrumented = Deployment::from_module(module.clone()).unwrap();
        assert!(intrinsics(&instrumented) > 0, "the pass bound nothing");
        let d = Deployment::uninstrumented(module).unwrap();
        assert!(d.metadata.is_none());
        assert_eq!(
            intrinsics(&d),
            0,
            "uninstrumented image carries ctx_* calls"
        );

        let mut world = d.world();
        let pid = d.launch(&mut world, &Protection::cet());
        world.run(10_000_000);
        assert!(world.proc(pid).unwrap().seccomp.is_none());
        assert_eq!(world.trap_count, 0);
        assert_eq!(world.proc(pid).unwrap().exit, Some(ExitReason::Exited(1)));

        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.launch(&mut d.world(), &Protection::full())
        }));
        assert!(launched.is_err(), "a monitor launched without metadata");
    }
}
