//! # bastion-apps
//!
//! The three system-call-intensive workload applications of the paper's
//! evaluation (§9), rebuilt in MiniC, plus the clients that drive them:
//!
//! | Paper | Here | Client ([`traffic`]) | Blocking driver ([`loadgen`]) |
//! |---|---|---|---|
//! | NGINX + wrk | [`webserve`] | [`traffic::HttpTraffic`] | [`loadgen::http_load`] |
//! | SQLite + DBT2 | [`dbkv`] | [`traffic::TpccTraffic`] | [`loadgen::tpcc_load`] |
//! | vsftpd + dkftpbench | [`ftpd`] | [`traffic::FtpTraffic`] | [`loadgen::ftp_load`] |
//!
//! Each protocol client is written once, as a stepped driver in
//! [`traffic`]: the `bastion serve` supervisor pumps it between scheduler
//! quanta of many tenant worlds, and [`loadgen`] runs it to completion on
//! one world for the Figure 3 / Table 3 measurements.
//!
//! [`App`] bundles each program with its VFS fixtures and ports so
//! harnesses (benchmarks, attack scenarios, examples) can launch any of
//! them uniformly.

pub mod dbkv;
pub mod ftpd;
pub mod loadgen;
pub mod traffic;
pub mod webserve;

use bastion_ir::Module;
use bastion_kernel::World;
use bastion_minic::{compile_program, FrontError};
use std::sync::{Arc, OnceLock};

/// One of the three evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// The NGINX analogue.
    Webserve,
    /// The SQLite/DBT2 analogue.
    Dbkv,
    /// The vsftpd analogue.
    Ftpd,
}

/// All three applications in paper order.
pub const ALL_APPS: [App; 3] = [App::Webserve, App::Dbkv, App::Ftpd];

impl App {
    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            App::Webserve => "NGINX (webserve)",
            App::Dbkv => "SQLite (dbkv)",
            App::Ftpd => "vsFTPd (ftpd)",
        }
    }

    /// Short identifier.
    pub fn id(self) -> &'static str {
        match self {
            App::Webserve => "webserve",
            App::Dbkv => "dbkv",
            App::Ftpd => "ftpd",
        }
    }

    /// MiniC source of the application.
    pub fn source(self) -> &'static str {
        match self {
            App::Webserve => webserve::SOURCE,
            App::Dbkv => dbkv::SOURCE,
            App::Ftpd => ftpd::SOURCE,
        }
    }

    /// Listener port the load generator targets.
    pub fn port(self) -> u16 {
        match self {
            App::Webserve => webserve::PORT,
            App::Dbkv => dbkv::PORT,
            App::Ftpd => ftpd::PORT,
        }
    }

    /// Compiles the application (libc prelude included, uninstrumented).
    ///
    /// # Errors
    /// Propagates front-end errors (none for the shipped sources).
    pub fn module(self) -> Result<Module, FrontError> {
        compile_program(self.id(), &[self.source()])
    }

    /// Installs the application's filesystem fixtures into a world.
    pub fn setup_vfs(self, world: &mut World) {
        match self {
            App::Webserve => {
                let page: Vec<u8> = page_bytes(webserve::PAGE_BYTES);
                world.kernel.vfs.put_file(webserve::PAGE_PATH, page, 0o644);
                world.kernel.vfs.put_file(
                    webserve::UPGRADE_PATH,
                    vec![0x7f, b'E', b'L', b'F'],
                    0o755,
                );
            }
            App::Dbkv => {
                world.kernel.vfs.put_file(dbkv::WAL_PATH, Vec::new(), 0o600);
            }
            App::Ftpd => {
                let payload = Arc::clone(ftp_payload());
                world.kernel.vfs.put_file(ftpd::FILE_PATH, payload, 0o644);
            }
        }
    }
}

/// The ftpd download payload (`i * 31 % 251` for byte `i`), built once per
/// process and shared copy-on-write by every world's VFS, the way tenants
/// share compiled images.
fn ftp_payload() -> &'static Arc<Vec<u8>> {
    static PAYLOAD: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        Arc::new(
            (0..ftpd::FILE_BYTES)
                .map(|i| (i * 31 % 251) as u8)
                .collect(),
        )
    })
}

/// Deterministic pseudo-HTML page content of the given size.
fn page_bytes(n: usize) -> Vec<u8> {
    let body = b"<html><body><p>bastion reproduction static page</p></body></html>\n";
    body.iter().copied().cycle().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_compile_and_validate() {
        for app in ALL_APPS {
            let m = app.module().unwrap_or_else(|e| panic!("{}: {e}", app.id()));
            assert!(m.func_by_name("main").is_some(), "{}", app.id());
        }
    }

    #[test]
    fn fixtures_install() {
        for app in ALL_APPS {
            let mut w = World::new(bastion_vm::CostModel::default());
            app.setup_vfs(&mut w);
            assert!(w.kernel.vfs.file_count() > 0, "{}", app.id());
        }
        let mut w = World::new(bastion_vm::CostModel::default());
        App::Webserve.setup_vfs(&mut w);
        assert_eq!(
            w.kernel.vfs.file(webserve::PAGE_PATH).unwrap().data.len(),
            webserve::PAGE_BYTES
        );
    }

    #[test]
    fn ftpd_worlds_share_one_payload() {
        let payload = |w: &World| Arc::clone(&w.kernel.vfs.file(ftpd::FILE_PATH).unwrap().data);
        let (mut a, mut b) = (
            World::new(bastion_vm::CostModel::default()),
            World::new(bastion_vm::CostModel::default()),
        );
        App::Ftpd.setup_vfs(&mut a);
        App::Ftpd.setup_vfs(&mut b);
        let (pa, pb) = (payload(&a), payload(&b));
        assert!(Arc::ptr_eq(&pa, &pb), "each world built its own payload");
        assert_eq!(pa.len(), ftpd::FILE_BYTES);
        assert!(pa
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i * 31 % 251) as u8));
    }
}
