//! `reproduce serve` / `reproduce serve-chaos` — the campaign service
//! CLI and its self-checking smoke driver.
//!
//! `serve` runs the HTTP campaign service until SIGTERM/SIGINT, then
//! drains gracefully (stops admission, cancels running campaigns so
//! in-flight points journal, waits out `drain_timeout_ms`) and prints a
//! [`DrainReport`] as JSON. A restarted `serve` over the same `--root`
//! resumes every unfinished campaign to byte-identical results.
//!
//! `serve-chaos` is the CI smoke: it boots a real server on an
//! ephemeral port and plays adversarial client against it — identical
//! sweeps from two tenants (dedupe must collapse them to one render),
//! an oversized campaign (must shed with `429 + Retry-After` while the
//! admitted work keeps moving), a mid-run drain (must interrupt,
//! journal, and resume byte-identically on restart), and a metrics
//! scrape. Exits nonzero on any violated contract.

use crate::cli::{die, Args};
use crate::progress::Progress;
use eth_core::config::{Algorithm, Application, ExperimentSpec};
use eth_core::serve::{CampaignRequest, CampaignStatus, Server, Service, ServicePolicy};
use eth_core::{Campaign, RunCaches};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------------------
// serve-chaos: adversarial self-checking client
// ---------------------------------------------------------------------------

/// Minimal HTTP/1.1 client: send `request` raw, read to EOF, return
/// (status, head, body).
fn http(addr: SocketAddr, request: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, raw[head_end + 4..].to_vec())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, Vec<u8>) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n"),
    )
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String, Vec<u8>) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: c\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// One self-check: print PASS/FAIL and track the verdict.
struct Checks {
    failed: usize,
}

impl Checks {
    fn assert(&mut self, ok: bool, what: &str) {
        if ok {
            println!("PASS {what}");
        } else {
            println!("FAIL {what}");
            self.failed += 1;
        }
    }
}

fn chaos_spec(name: &str) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 2_000 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(1)
        .image_size(32, 32)
        .build()
        .expect("chaos spec validates")
}

fn parse_status(body: &[u8]) -> CampaignStatus {
    serde_json::from_str(std::str::from_utf8(body).expect("utf-8 status"))
        .expect("campaign status json")
}

fn wait_terminal(addr: SocketAddr, id: usize, what: &str) -> CampaignStatus {
    let t0 = Instant::now();
    loop {
        let (code, _, body) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(code, 200, "{what}: status endpoint");
        let status = parse_status(&body);
        if status.state != "running" {
            return status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "{what}: timed out waiting for campaign {id}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Pull the value of a gauge/counter line out of Prometheus text.
fn metric_value(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

/// `reproduce serve-chaos [--root DIR]`: boot a real server, attack it,
/// verify every robustness contract, exit nonzero on failure.
pub fn run_serve_chaos(args: &Args, progress: &Progress) {
    let root = args.get("--root").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("eth-serve-chaos-{:x}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&root);
    let mut checks = Checks { failed: 0 };

    progress.begin("serve-chaos");
    let policy = ServicePolicy {
        max_queued_points: 8,
        per_tenant_inflight: 1,
        request_deadline_ms: 5_000,
        drain_timeout_ms: 60_000,
        subscriber_buffer: 64,
        resources: None,
    };
    let service = Service::new(&root, policy.clone()).expect("service opens").with_slots(2);
    let mut server = Server::start(service.clone(), "127.0.0.1:0").expect("server binds");
    let addr = server.addr();
    progress.note(&format!("chaos server on http://{addr}"));

    // Liveness surface.
    let (code, _, body) = get(addr, "/healthz");
    checks.assert(code == 200 && body == b"ok\n", "healthz answers ok");
    checks.assert(get(addr, "/readyz").0 == 200, "readyz is ready before drain");

    // Two tenants, identical sweeps: the dedupe memo must collapse the
    // renders while both campaigns complete independently.
    let mut shared = CampaignRequest::single("alice", chaos_spec("chaos-shared"));
    shared.sampling_ratios = vec![0.5, 1.0];
    let payload = serde_json::to_string(&shared).expect("request serializes");
    let (code, _, body) = post_json(addr, "/campaigns", &payload);
    checks.assert(code == 201, "tenant alice admits");
    let alice = parse_status(&body);
    let mut bob_req = shared.clone();
    bob_req.tenant = "bob".to_string();
    let (code, _, body) = post_json(
        addr,
        "/campaigns",
        &serde_json::to_string(&bob_req).expect("request serializes"),
    );
    checks.assert(code == 201, "tenant bob admits (per-tenant caps are per tenant)");
    let bob = parse_status(&body);

    // Overload: a campaign bigger than the queue bound must shed with
    // 429 + Retry-After immediately, while admitted campaigns progress.
    let mut flood = CampaignRequest::single("mallory", chaos_spec("chaos-flood"));
    flood.sampling_ratios = (1..=9).map(|i| i as f64 / 9.0).collect();
    let (code, head, _) = post_json(
        addr,
        "/campaigns",
        &serde_json::to_string(&flood).expect("request serializes"),
    );
    checks.assert(code == 429, "oversized campaign sheds with 429");
    checks.assert(
        head.to_ascii_lowercase().contains("retry-after:"),
        "429 carries Retry-After",
    );

    let alice_done = wait_terminal(addr, alice.id, "alice");
    let bob_done = wait_terminal(addr, bob.id, "bob");
    checks.assert(
        alice_done.state == "done" && alice_done.points_done == 2,
        "alice's campaign completed despite the flood",
    );
    checks.assert(
        bob_done.state == "done" && bob_done.points_done == 2,
        "bob's campaign completed despite the flood",
    );

    // Identical sweeps must have cost one render per point.
    let (_, _, metrics) = get(addr, "/metrics");
    let metrics = String::from_utf8_lossy(&metrics).to_string();
    checks.assert(
        metric_value(&metrics, "eth_serve_dedupe_hits_total") == Some(2.0),
        "dedupe collapsed the identical sweep (2 hits)",
    );
    checks.assert(
        metric_value(&metrics, "eth_serve_shed_total").is_some_and(|v| v >= 1.0),
        "shed counter recorded the 429",
    );
    checks.assert(
        metric_value(&metrics, "eth_serve_queue_depth_points") == Some(0.0),
        "queue depth returns to zero",
    );
    checks.assert(
        metrics.contains("eth_campaign_points_total"),
        "campaign telemetry is exported",
    );

    // Byte-identical artifacts across tenants.
    let (code_a, _, png_a) = get(addr, &format!("/campaigns/{}/points/0/image", alice.id));
    let (code_b, _, png_b) = get(addr, &format!("/campaigns/{}/points/0/image", bob.id));
    checks.assert(
        code_a == 200 && code_b == 200 && !png_a.is_empty() && png_a == png_b,
        "tenants' PNGs are byte-identical",
    );

    // SSE: a subscriber to a finished campaign still gets the seeded
    // status event and a clean close.
    let (code, _, sse) = get(addr, &format!("/campaigns/{}/events", alice.id));
    let sse = String::from_utf8_lossy(&sse).to_string();
    checks.assert(
        code == 200 && sse.contains("event: status"),
        "SSE replays the status seed event",
    );

    // Mid-run drain: a longer campaign is interrupted, journals, and a
    // restarted service resumes it to byte-identical results.
    let mut slow = CampaignRequest::single("carol", chaos_spec("chaos-slow"));
    slow.sampling_ratios = vec![0.25, 0.5, 0.75, 1.0];
    let slow_specs = slow.specs().expect("slow sweep materializes");
    let (code, _, body) = post_json(
        addr,
        "/campaigns",
        &serde_json::to_string(&slow).expect("request serializes"),
    );
    checks.assert(code == 201, "carol admits after the queue reopened");
    let carol = parse_status(&body);
    // Drain as soon as at least one point landed (SIGTERM path minus the
    // process exit).
    let t0 = Instant::now();
    loop {
        let (_, _, body) = get(addr, &format!("/campaigns/{}", carol.id));
        if parse_status(&body).points_done >= 1 || t0.elapsed() > Duration::from_secs(120) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (code, _, body) = http(addr, "POST /drain HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n");
    checks.assert(code == 200, "drain endpoint answers");
    let report: eth_core::serve::DrainReport =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf-8 drain")).expect("drain json");
    checks.assert(!report.timed_out, "drain finished inside drain_timeout_ms");
    checks.assert(get(addr, "/readyz").0 == 503, "readyz flips to 503 while draining");
    let (code, _, _) = post_json(addr, "/campaigns", &payload);
    checks.assert(code == 503, "draining service refuses new campaigns with 503");
    let carol_after = wait_terminal(addr, carol.id, "carol");
    checks.assert(
        carol_after.state == "done" || carol_after.state == "interrupted",
        "drained campaign is journaled (done or interrupted)",
    );
    server.shutdown();
    drop(service);

    // Restart over the same root: unfinished work resumes; artifacts
    // must match an undisturbed reference run byte for byte.
    let service2 = Service::new(&root, policy).expect("service reopens").with_slots(2);
    let resumed = service2.resume_existing().expect("resume scan");
    if carol_after.state == "interrupted" {
        checks.assert(
            resumed.contains(&carol.id),
            "restart resumes the interrupted campaign",
        );
    } else {
        progress.note("drain landed after carol finished; resume had nothing to do");
    }
    let mut server2 = Server::start(service2.clone(), "127.0.0.1:0").expect("server rebinds");
    let addr2 = server2.addr();
    let carol_final = wait_terminal(addr2, carol.id, "carol after restart");
    checks.assert(
        carol_final.state == "done" && carol_final.points_done == slow_specs.len(),
        "resumed campaign completes every point",
    );

    let ref_dir = root.join("reference");
    let reference = Campaign::with_capacity(2)
        .run_journaled(&slow_specs, &RunCaches::new(), &ref_dir)
        .expect("reference run");
    let mut identical = reference.failures() == 0;
    for index in 0..slow_specs.len() {
        let (code, _, served) = get(addr2, &format!("/campaigns/{}/points/{index}/image", carol.id));
        let expected = reference.results[index]
            .as_ref()
            .ok()
            .and_then(|o| o.images.first())
            .map(|img| img.to_png());
        identical &= code == 200 && expected.as_deref() == Some(served.as_slice());
    }
    checks.assert(
        identical,
        "drain → restart → resume reproduced the undisturbed images byte-for-byte",
    );
    server2.shutdown();

    progress.done("serve-chaos", "complete");
    if checks.failed > 0 {
        die(1, format!("serve-chaos: {} check(s) failed", checks.failed));
    }
    println!("serve-chaos: all checks passed");
}
