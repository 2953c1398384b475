//! `reproduce serve` — the campaign service CLI.
//!
//! It runs the HTTP campaign service until SIGTERM/SIGINT, then drains
//! gracefully (stops admission, cancels running campaigns so in-flight
//! points journal, waits out `drain_timeout_ms`) and prints a
//! [`DrainReport`](eth_core::serve::DrainReport) as JSON. A restarted
//! `serve` over the same `--root` resumes every unfinished campaign to
//! byte-identical results.

use crate::cli::{die, Args};
use crate::progress::Progress;
use eth_core::serve::{Server, Service, ServicePolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install `on_signal` for SIGTERM and SIGINT through the libc `signal`
/// entry point std already links — no libc crate in the tree.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// `reproduce serve`: flags per its row in `reproduce`'s subcommand table.
pub fn run_serve(args: &Args, progress: &Progress) -> ! {
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7070");
    let root = PathBuf::from(args.get("--root").unwrap_or("serve-root"));
    let defaults = ServicePolicy::default();
    let int = |flag: &str, default: u64| args.int(flag).unwrap_or(default);
    let policy = ServicePolicy {
        max_queued_points: int("--max-queued-points", defaults.max_queued_points as u64) as usize,
        per_tenant_inflight: int("--per-tenant-inflight", defaults.per_tenant_inflight as u64) as usize,
        request_deadline_ms: int("--request-deadline-ms", defaults.request_deadline_ms),
        drain_timeout_ms: int("--drain-timeout-ms", defaults.drain_timeout_ms),
        ..defaults
    };

    let mut service = Service::new(&root, policy)
        .unwrap_or_else(|e| die(1, format!("failed to open service root {}: {e}", root.display())));
    if let Some(n) = args.int("--slots") {
        service = service.with_slots(n as usize);
    }
    let resumed = service
        .resume_existing()
        .unwrap_or_else(|e| die(1, format!("resume scan failed: {e}")));
    if !resumed.is_empty() {
        progress.note(&format!("resumed campaigns: {resumed:?}"));
    }
    let mut server = Server::start(service.clone(), addr)
        .unwrap_or_else(|e| die(1, format!("failed to bind {addr}: {e}")));
    install_signal_handlers();
    println!("eth serve listening on http://{}", server.addr());
    println!("root: {}", root.display());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    progress.note("signal received: draining");
    let report = service.drain();
    server.shutdown();
    println!(
        "{}",
        serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string())
    );
    std::process::exit(if report.timed_out { 1 } else { 0 });
}
