//! End-to-end tests of the campaign service: admission shed under
//! overload, cross-tenant dedupe, drain → restart → byte-identical
//! resume, and the HTTP surface (deadlines included).

use eth_core::config::{Algorithm, Application, ExperimentSpec};
use eth_core::journal;
use eth_core::serve::{AdmissionError, CampaignRequest, Server, Service, ServicePolicy};
use eth_core::{Campaign, RunCaches};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eth-serve-test-{tag}-{:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(name: &str) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .application(Application::Hacc { particles: 600 })
        .algorithm(Algorithm::GaussianSplat)
        .ranks(1)
        .image_size(16, 16)
        .build()
        .unwrap()
}

/// Poll `f` every few ms until it returns true, or panic after 30 s.
fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !f() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn terminal(svc: &Service, id: usize) -> bool {
    svc.status(id)
        .map(|s| s.state != "running")
        .unwrap_or(false)
}

#[test]
fn overload_is_shed_while_admitted_campaigns_progress() {
    let root = tmp_root("shed");
    let policy = ServicePolicy {
        max_queued_points: 3,
        per_tenant_inflight: 1,
        ..ServicePolicy::default()
    };
    let svc = Service::new(&root, policy).unwrap().with_slots(1);

    // Gate the runner so the first campaign deterministically stays in
    // flight while we probe admission.
    let gate = Arc::new(AtomicBool::new(false));
    let runner_gate = gate.clone();
    svc.set_test_runner(Arc::new(move |spec, _attempt| {
        while !runner_gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        eth_core::run_native(spec)
    }));

    let mut req_a = CampaignRequest::single("alice", small_spec("shed-a"));
    req_a.sampling_ratios = vec![0.5, 1.0]; // two points, fills the queue bound
    let admitted = svc.submit(&req_a).expect("first campaign admits");

    // Same tenant again: per-tenant in-flight cap.
    let err = svc.submit(&req_a).unwrap_err();
    assert!(
        matches!(err, AdmissionError::Shed { .. }),
        "expected per-tenant shed, got {err}"
    );

    // Another tenant with room in the queue admits: the in-flight cap is
    // per tenant.
    let other = svc
        .submit(&CampaignRequest::single("dave", small_spec("shed-d")))
        .expect("another tenant admits");

    // Different tenant: global queued-points bound (3 + 1 > 3).
    let req_b = CampaignRequest::single("bob", small_spec("shed-b"));
    match svc.submit(&req_b).unwrap_err() {
        AdmissionError::Shed { retry_after_s, reason } => {
            assert!(retry_after_s >= 1);
            assert!(reason.contains("bound"), "reason: {reason}");
        }
        other => panic!("expected queue shed, got {other}"),
    }

    // Shedding happened while the admitted campaign was untouched; let
    // it finish and verify the queue reopens.
    gate.store(true, Ordering::SeqCst);
    for id in [admitted.id, other.id] {
        wait_until("campaign to finish", || terminal(&svc, id));
        assert_eq!(svc.status(id).unwrap().state, "done");
    }
    assert_eq!(svc.queue_depth(), 0);
    svc.submit(&req_b).expect("queue reopened after completion");

    let metrics = svc.metrics_text();
    assert!(metrics.contains("eth_serve_shed_total 2"), "{metrics}");
    assert!(metrics.contains("eth_serve_queue_depth_points"), "{metrics}");
}

#[test]
fn identical_specs_across_tenants_cost_one_render() {
    let root = tmp_root("dedupe");
    let svc = Service::new(&root, ServicePolicy::default()).unwrap().with_slots(2);

    // Identical base (same name) → identical spec hash → one render.
    let a = svc
        .submit(&CampaignRequest::single("alice", small_spec("shared")))
        .unwrap();
    wait_until("alice's campaign", || terminal(&svc, a.id));
    let b = svc
        .submit(&CampaignRequest::single("bob", small_spec("shared")))
        .unwrap();
    wait_until("bob's campaign", || terminal(&svc, b.id));

    assert_eq!(svc.status(a.id).unwrap().state, "done");
    assert_eq!(svc.status(b.id).unwrap().state, "done");
    let metrics = svc.metrics_text();
    assert!(metrics.contains("eth_serve_dedupe_hits_total 1"), "{metrics}");
    assert!(metrics.contains("eth_serve_dedupe_misses_total 1"), "{metrics}");

    // Both tenants' journaled artifacts are byte-identical.
    let png_a = svc.point_png(a.id, 0).expect("alice image");
    let png_b = svc.point_png(b.id, 0).expect("bob image");
    assert!(!png_a.is_empty());
    assert_eq!(png_a, png_b);
}

#[test]
fn drain_interrupts_journals_and_restart_resumes_byte_identical() {
    let root = tmp_root("drain");
    let specs: Vec<ExperimentSpec> = {
        let mut req = CampaignRequest::single("carol", small_spec("drain"));
        req.sampling_ratios = vec![0.25, 0.5, 0.75, 1.0];
        req.specs().unwrap()
    };

    // Reference: the same four points run undisturbed.
    let ref_dir = tmp_root("drain-ref");
    let reference = Campaign::with_capacity(1)
        .run_journaled(&specs, &RunCaches::new(), &ref_dir)
        .unwrap();
    assert_eq!(reference.failures(), 0);

    // Service run, interrupted after point 0: points ≥ 1 are gated on
    // the draining flag, so exactly one point finishes before drain and
    // one finishes during it (in-flight work runs to completion and
    // journals); the rest are canceled while queued.
    let svc = Service::new(&root, ServicePolicy::default()).unwrap().with_slots(1);
    let first = specs[0].name.clone();
    let draining = svc.draining_flag();
    svc.set_test_runner(Arc::new(move |spec, _attempt| {
        while spec.name != first && !draining.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        eth_core::run_native(spec)
    }));
    let mut req = CampaignRequest::single("carol", small_spec("drain"));
    req.sampling_ratios = vec![0.25, 0.5, 0.75, 1.0];
    let admitted = svc.submit(&req).unwrap();
    wait_until("first point", || {
        svc.status(admitted.id).map(|s| s.points_done >= 1).unwrap_or(false)
    });

    let report = svc.drain();
    assert!(!report.timed_out, "drain timed out: {report:?}");
    assert_eq!(report.interrupted, 1, "{report:?}");
    let status = svc.status(admitted.id).unwrap();
    assert_eq!(status.state, "interrupted");
    assert!(status.points_done >= 1);
    assert!(status.points_done < specs.len(), "nothing left to resume");

    // Draining services shed everything.
    assert!(matches!(
        svc.submit(&CampaignRequest::single("dave", small_spec("late"))),
        Err(AdmissionError::Draining)
    ));
    drop(svc);

    // "Restart": a fresh service over the same root resumes the
    // campaign; finished points restore from the WAL instead of
    // re-running.
    let done_before_restart = status.points_done;
    let svc2 = Service::new(&root, ServicePolicy::default()).unwrap().with_slots(1);
    let resumed = svc2.resume_existing().unwrap();
    assert_eq!(resumed, vec![admitted.id]);
    wait_until("resumed campaign", || terminal(&svc2, admitted.id));
    let final_status = svc2.status(admitted.id).unwrap();
    assert_eq!(final_status.state, "done");
    assert_eq!(final_status.points_restored, done_before_restart);
    assert_eq!(final_status.points_done, specs.len());

    // Byte-identical to the undisturbed reference, restored and re-run
    // points alike.
    let dir = root.join("campaign-0000");
    for (index, spec) in specs.iter().enumerate() {
        let hash = journal::spec_hash(spec);
        let served = journal::load_result(&dir, index, hash, spec).unwrap();
        let expected = reference.results[index].as_ref().unwrap();
        assert_eq!(
            served.images, expected.images,
            "point {index} diverged after drain/resume"
        );
    }

    // A second restart has nothing to do.
    let svc3 = Service::new(&root, ServicePolicy::default()).unwrap();
    assert!(svc3.resume_existing().unwrap().is_empty());
    assert_eq!(svc3.status(admitted.id).unwrap().state, "done");
}

/// A campaign's record as the service persists it (`service.json`).
#[derive(serde::Deserialize)]
struct Record {
    done: bool,
    summary: Option<eth_core::serve::CampaignStatus>,
}

fn read_record(dir: &std::path::Path) -> (Record, String) {
    let text = std::fs::read_to_string(dir.join("service.json")).unwrap();
    let record = serde_json::from_str(&text).unwrap_or_else(|e| panic!("torn record ({e}): {text}"));
    (record, text)
}

/// A non-running status and an un-timed-out drain both promise that the
/// campaign's epilogue is on disk: `reproduce serve` exits right after
/// `drain()`, and a client that polled "done" may restart the service.
#[test]
fn terminal_status_and_drain_imply_a_durable_epilogue() {
    let durable = |root: &std::path::Path, status: &eth_core::serve::CampaignStatus| {
        let dir = root.join(format!("campaign-{:04}", status.id));
        let (record, text) = read_record(&dir);
        let summary = record
            .summary
            .unwrap_or_else(|| panic!("campaign {} is {} but has no summary: {text}", status.id, status.state));
        assert_eq!(summary.state, status.state);
        assert!(record.done, "terminal record not durable: {text}");
    };
    for round in 0..8 {
        let root = tmp_root(&format!("epilogue-{round}"));
        let svc = Service::new(&root, ServicePolicy::default()).unwrap().with_slots(1);
        let admitted = svc
            .submit(&CampaignRequest::single("erin", small_spec("epilogue")))
            .unwrap();
        // Spin, don't sleep: the check has to land inside the worker's
        // epilogue window, right behind the state change.
        let t0 = Instant::now();
        let dir = root.join("campaign-0000");
        let (status, on_disk) = loop {
            let status = svc.status(admitted.id).unwrap();
            if status.state != "running" {
                // one read, before the worker can get any further
                break (status, read_record(&dir).0.summary.is_some());
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "campaign never finished");
            std::hint::spin_loop();
        };
        assert!(on_disk, "status said {} before the summary was on disk", status.state);
        assert_eq!(status.state, "done");
        durable(&root, &status);

        let report = svc.drain();
        assert!(!report.timed_out, "{report:?}");
        for status in svc.list().iter().filter(|s| s.state != "running") {
            durable(&root, status);
        }
    }
}

/// Minimal HTTP/1.1 client: one request, read to EOF; (head, body).
fn exchange(addr: std::net::SocketAddr, request: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let body = raw.split_off(head_end + 4);
    (String::from_utf8(raw).unwrap(), body)
}

fn http(addr: std::net::SocketAddr, request: &str) -> (u16, Vec<u8>) {
    let (head, body) = exchange(addr, request);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn http_surface_end_to_end() {
    let root = tmp_root("http");
    let svc = Service::new(&root, ServicePolicy::default()).unwrap().with_slots(2);
    let mut server = Server::start(svc, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    assert_eq!(get(addr, "/readyz").0, 200);
    assert_eq!(get(addr, "/nope").0, 404);

    // Submit over HTTP.
    let req = CampaignRequest::single("alice", small_spec("http"));
    let payload = serde_json::to_string(&req).unwrap();
    let (status, body) = http(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let submitted: eth_core::serve::CampaignStatus =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();

    // A campaign bigger than the queue bound sheds with 429 and a
    // Retry-After hint.
    let mut flood = CampaignRequest::single("mallory", small_spec("http-flood"));
    let n = ServicePolicy::default().max_queued_points + 1;
    flood.sampling_ratios = (1..=n).map(|i| i as f64 / n as f64).collect();
    let flood = serde_json::to_string(&flood).unwrap();
    let (head, _) = exchange(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{flood}",
            flood.len()
        ),
    );
    assert!(head.starts_with("HTTP/1.1 429"), "{head}");
    assert!(head.to_ascii_lowercase().contains("\r\nretry-after: "), "{head}");

    wait_until("campaign over http", || {
        let (s, b) = get(addr, &format!("/campaigns/{}", submitted.id));
        s == 200 && !String::from_utf8_lossy(&b).contains("running")
    });

    // Journaled image arrives as a real PNG.
    let (status, png) = get(addr, &format!("/campaigns/{}/points/0/image", submitted.id));
    assert_eq!(status, 200);
    assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);

    // SSE: a late subscriber still gets the status seed event.
    let (status, sse) = get(addr, &format!("/campaigns/{}/events", submitted.id));
    assert_eq!(status, 200);
    let sse = String::from_utf8_lossy(&sse);
    assert!(sse.contains("event: status"), "{sse}");
    assert_eq!(get(addr, "/campaigns/999/events").0, 404);

    // Metrics carry both the service and campaign namespaces.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&metrics);
    assert!(metrics.contains("eth_serve_admitted_campaigns_total 1"), "{metrics}");
    assert!(metrics.contains("eth_campaign_points_total"), "{metrics}");

    // Drain over HTTP flips readiness and sheds new work with 503.
    let (status, report) = http(
        addr,
        "POST /drain HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&report).contains("\"campaigns_total\""));
    assert_eq!(get(addr, "/readyz").0, 503);
    let (status, _) = http(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, 503);

    server.shutdown();
}

#[test]
fn a_deeply_nested_body_is_a_400_and_the_service_lives_on() {
    // 1 MiB of `[` used to overflow the JSON parser's stack, which aborts
    // the whole process, not just the connection
    let root = tmp_root("nesting");
    let svc = Service::new(&root, ServicePolicy::default()).unwrap();
    let mut server = Server::start(svc, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let body = "[".repeat(1 << 20);
    let (status, reply) = http(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reply));
    assert!(String::from_utf8_lossy(&reply).contains("nesting"));
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    server.shutdown();
}

#[test]
fn stalled_clients_get_408_within_the_deadline() {
    let root = tmp_root("deadline");
    let policy = ServicePolicy {
        request_deadline_ms: 150,
        ..ServicePolicy::default()
    };
    let svc = Service::new(&root, policy).unwrap();
    let server = Server::start(svc, "127.0.0.1:0").unwrap();

    let t0 = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Send a partial request head and stall.
    stream.write_all(b"GET /healthz HTT").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline not enforced: {:?}",
        t0.elapsed()
    );
}
