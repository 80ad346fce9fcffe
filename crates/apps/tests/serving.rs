//! End-to-end: each application boots in a world and serves its workload
//! through the corresponding load generator.

use bastion_apps::{loadgen, App};
use bastion_ir::sysno;
use bastion_kernel::World;
use bastion_vm::{CostModel, Image, Machine};
use std::sync::Arc;

fn boot(app: App) -> World {
    let module = app.module().unwrap();
    let image = Arc::new(Image::load(module).unwrap());
    let machine = Machine::new(image, CostModel::default());
    let mut world = World::new(CostModel::default());
    app.setup_vfs(&mut world);
    world.spawn(machine);
    // Let the server initialize (returns Idle once all workers block).
    world.run(200_000_000);
    world
}

#[test]
fn webserve_serves_pages() {
    let mut world = boot(App::Webserve);
    // Master + 32 workers alive.
    assert_eq!(world.alive_count(), 33);
    let stats = loadgen::http_load(&mut world, App::Webserve.port(), 8, 50);
    assert_eq!(stats.requests, 50);
    // Each response carries the full page plus headers.
    assert!(stats.bytes >= 50 * bastion_apps::webserve::PAGE_BYTES as u64);
    assert!(stats.cycles > 0);
    // Keep-alive: accept4 fires per connection, far below the request
    // count (Table 4's accept4 5,665 vs ~340k requests relationship).
    let accepts = world.kernel.count_of(sysno::ACCEPT4);
    assert!(accepts >= 33, "accepts {accepts}"); // 32 parked workers + live conns
    assert!(accepts < 33 + 50, "accepts {accepts}");
    // Init-phase sensitive syscalls fired: clone, mmap, mprotect, setuid.
    assert_eq!(world.kernel.count_of(sysno::CLONE), 32);
    assert!(world.kernel.count_of(sysno::MMAP) > 500);
    assert!(world.kernel.count_of(sysno::MPROTECT) > 300);
    assert_eq!(world.kernel.count_of(sysno::SETUID), 32);
    assert_eq!(world.kernel.count_of(sysno::SOCKET), 33);
}

#[test]
fn webserve_upgrade_path_reaches_execve() {
    let mut world = boot(App::Webserve);
    let c = world.net_connect(App::Webserve.port()).unwrap();
    world.net_send(c, b"GET /upgrade HTTP/1.0\r\n\r\n");
    world.run(50_000_000);
    assert_eq!(world.kernel.count_of(sysno::EXECVE), 1);
    assert_eq!(world.kernel.exec_log.len(), 1);
    assert!(world.kernel.exec_log[0].1.contains("webserve-new"));
}

#[test]
fn dbkv_commits_transactions() {
    let mut world = boot(App::Dbkv);
    assert_eq!(world.alive_count(), 9); // master + 8 workers
    let stats = loadgen::tpcc_load(&mut world, App::Dbkv.port(), 2, 400);
    assert_eq!(stats.transactions, 400);
    assert!(stats.notpm(2_000_000_000) > 0.0);
    // SQLite shape: mprotect-heavy relative to mmap.
    assert!(world.kernel.count_of(sysno::MPROTECT) > world.kernel.count_of(sysno::MMAP));
    // The WAL grew.
    let wal = world.kernel.vfs.file(bastion_apps::dbkv::WAL_PATH).unwrap();
    assert!(wal.data.starts_with(b"TX "));
    assert!(wal.data.iter().filter(|&&b| b == b'\n').count() >= 400);
}

#[test]
fn ftpd_streams_downloads() {
    let mut world = boot(App::Ftpd);
    let stats = loadgen::ftp_load(
        &mut world,
        App::Ftpd.port(),
        3,
        bastion_apps::ftpd::FILE_PATH,
    );
    assert_eq!(stats.files, 3);
    assert_eq!(stats.bytes, 3 * bastion_apps::ftpd::FILE_BYTES as u64);
    // Per-transfer passive sockets: socket/bind/listen/accept move together.
    assert_eq!(world.kernel.count_of(sysno::SOCKET), 1 + 3);
    assert_eq!(world.kernel.count_of(sysno::BIND), 1 + 3);
    assert_eq!(world.kernel.count_of(sysno::LISTEN), 1 + 3);
    // 3 control + 3 data accepts, plus the final accept parked waiting for
    // a fourth session (invocations are counted at entry, like strace).
    assert_eq!(world.kernel.count_of(sysno::ACCEPT), 3 + 3 + 1);
    // Per-session privilege drops.
    assert_eq!(world.kernel.count_of(sysno::SETUID), 3);
    let secs = stats.seconds_for(100_000_000, 2_000_000_000);
    assert!(secs.is_finite() && secs > 0.0);
}

#[test]
fn http_refill_order_is_pinned() {
    // Concurrency binds: 300 requests are 11 keep-alive connections over 6
    // slots. A slot freed while the other connections keep the server busy
    // must be refilled before the next scheduler slice; refilling it one
    // slice later moves `cycles`. (With fewer slots every connection of a
    // wave finishes in the same slice, the world parks, and a late refill
    // costs no virtual time, so such a load cannot pin the order.)
    let mut world = boot(App::Webserve);
    let stats = loadgen::http_load(&mut world, App::Webserve.port(), 6, 300);
    assert_eq!(
        (stats.requests, stats.bytes, stats.cycles),
        (300, 2_035_800, 20_473_030)
    );
    // 32 parked workers + one accept per keep-alive connection.
    assert_eq!(world.kernel.count_of(sysno::ACCEPT4), 32 + 11);
}

#[test]
fn tpcc_batches_release_their_sessions() {
    // Each batch must close its terminals: 3 batches of 4 sessions would
    // otherwise leave all 8 dbkv workers blocked reading dead connections.
    let mut world = boot(App::Dbkv);
    for batch in 0..3 {
        let stats = loadgen::tpcc_load(&mut world, App::Dbkv.port(), 4, 32);
        assert_eq!(stats.transactions, 32, "batch {batch}");
    }
}

#[test]
#[should_panic(expected = "http_load stalled")]
fn http_load_without_server_stalls() {
    let mut world = World::new(CostModel::default());
    loadgen::http_load(&mut world, App::Webserve.port(), 2, 10);
}

#[test]
#[should_panic(expected = "tpcc_load stalled")]
fn tpcc_load_without_server_stalls() {
    let mut world = World::new(CostModel::default());
    loadgen::tpcc_load(&mut world, App::Dbkv.port(), 2, 10);
}

#[test]
#[should_panic(expected = "ftp_load stalled")]
fn ftp_load_without_server_stalls() {
    let mut world = World::new(CostModel::default());
    loadgen::ftp_load(
        &mut world,
        App::Ftpd.port(),
        1,
        bastion_apps::ftpd::FILE_PATH,
    );
}

#[test]
#[should_panic(expected = "awaiting: Some(\"220\")")]
fn ftp_stall_names_the_awaited_reply() {
    // webserve accepts the control connection but never greets, so the
    // FTP client stalls waiting for `220`.
    let mut world = boot(App::Webserve);
    loadgen::ftp_load(
        &mut world,
        App::Webserve.port(),
        1,
        bastion_apps::ftpd::FILE_PATH,
    );
}
