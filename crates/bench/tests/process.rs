//! The contracts that need the `reproduce` process itself: a journaled
//! campaign killed with SIGKILL resumes to the whole table, `serve`
//! drains on SIGTERM and a restart serves the same bytes, and
//! `trace-analyze` fails with exit 1 on an export that has no critical
//! path. Every child runs in a temporary directory, so nothing lands in
//! the source tree.

mod argv;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGTERM: i32 = 15;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eth-process-{tag}-{:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `reproduce` with `argv`, `DIR` replaced by `dir`, run in `dir`.
fn reproduce(argv: &[&str], dir: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    command.current_dir(dir);
    for arg in argv {
        match *arg {
            "DIR" => command.arg(dir),
            word => command.arg(word),
        };
    }
    command
}

fn run(argv: &[&str], dir: &Path) -> Output {
    let out = reproduce(argv, dir).output().unwrap();
    assert!(
        out.status.success(),
        "{argv:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// SIGKILL a journaled table2 partway (a first run that already finished
/// is fine too); the resume must report all nine points and print the
/// table an undisturbed run prints.
#[test]
fn a_killed_journaled_campaign_resumes_to_the_whole_table() {
    let dir = tmp_dir("resume");
    let mut first = reproduce(argv::TABLE2_JOURNAL, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    first.kill().unwrap();
    first.wait().unwrap();

    let resumed = run(argv::TABLE2_RESUME, &dir);
    let said = String::from_utf8_lossy(&resumed.stderr);
    assert!(said.contains("campaign: 9 points"), "{said}");
    assert_eq!(resumed.stdout, run(argv::TABLE2, &dir).stdout);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A trace with no step marks exports no `ethCriticalPath` block:
/// `trace-analyze` prints nothing on stdout, exits 1 and names the file.
#[test]
fn trace_analyze_without_step_marks_exits_1_naming_the_file() {
    let dir = tmp_dir("no-steps");
    let recorder = eth_obs::Recorder::new();
    {
        let _attached = recorder.attach();
        let _render = eth_obs::span(eth_obs::Phase::Render);
    }
    let export = eth_obs::MergedTrace::build(recorder.take()).to_chrome_trace();
    assert!(!export.contains("ethCriticalPath"), "{export}");
    let path = dir.join("no-steps.json");
    std::fs::write(&path, export).unwrap();

    let out = reproduce(&["trace-analyze", path.to_str().unwrap()], &dir)
        .output()
        .unwrap();
    let said = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{said}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(said.contains(&path.display().to_string()), "{said}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A running `reproduce serve`, SIGKILLed if a test leaves it running.
struct Serve {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Serve {
    /// Start it over `root` and read the address it bound from its
    /// `eth serve listening on http://…` line.
    fn start(root: &Path) -> Serve {
        let mut child = reproduce(argv::SERVE, root)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            assert!(
                stdout.read_line(&mut line).unwrap() > 0,
                "serve exited before it listened"
            );
            if let Some(addr) = line.trim().strip_prefix("eth serve listening on http://") {
                break addr.parse().unwrap();
            }
        };
        Serve {
            child,
            stdout,
            addr,
        }
    }

    /// One request on its own connection: (status, body).
    fn http(&self, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(self.addr).unwrap();
        let head = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n", body.len());
        stream
            .write_all(format!("{head}{body}").as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response head");
        let status = String::from_utf8_lossy(&raw[..end])
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, raw.split_off(end + 4))
    }

    fn get(&self, path: &str) -> Vec<u8> {
        let (status, body) = self.http("GET", path, "");
        assert_eq!(
            status,
            200,
            "GET {path}: {}",
            String::from_utf8_lossy(&body)
        );
        body
    }

    fn text(&self, path: &str) -> String {
        String::from_utf8(self.get(path)).unwrap()
    }

    /// SIGTERM, then the drain: it must exit 0; returns what it printed.
    fn terminate(mut self) -> String {
        // SAFETY: kill(2) touches no memory of ours; the pid is our own
        // child's, not yet waited for, so it names no other process.
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0);
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(self.child.wait().unwrap().success(), "drain failed: {rest}");
        rest
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Two tenants submit the identical sweep (one render per point); SIGTERM
/// drains in time; a restart over the same root reports the campaign done
/// and serves the same image bytes.
#[test]
fn serve_drains_on_sigterm_and_a_restart_serves_the_same_bytes() {
    let root = tmp_dir("serve");
    let body = r#"{"tenant":"ci","base":{"name":"smoke","application":{"Hacc":{"particles":2000}},"algorithm":"GaussianSplat","coupling":"Tight","ranks":1,"steps":1,"images_per_step":1,"width":32,"height":32,"sampling_ratio":1,"seed":42,"artifact_dir":null},"sampling_ratios":[1.0,0.5]}"#;
    let serve = Serve::start(&root);
    for (id, tenant) in ["ci", "ci2"].into_iter().enumerate() {
        let (status, reply) = serve.http(
            "POST",
            "/campaigns",
            &body.replace("\"ci\"", &format!("\"{tenant}\"")),
        );
        let reply = String::from_utf8(reply).unwrap();
        assert_eq!(status, 201, "{reply}");
        assert!(reply.contains(&format!("\"id\":{id}")), "{reply}");
    }
    let t0 = Instant::now();
    while ["/campaigns/0", "/campaigns/1"]
        .iter()
        .any(|p| !serve.text(p).contains("\"state\":\"done\""))
    {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "campaigns never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = serve.text("/metrics");
    assert!(
        metrics.contains("eth_serve_dedupe_hits_total 2"),
        "{metrics}"
    );
    assert!(
        metrics.contains("eth_serve_admitted_campaigns_total 2"),
        "{metrics}"
    );
    let image = serve.get("/campaigns/0/points/0/image");
    assert!(image.starts_with(b"\x89PNG"), "not a PNG");
    let drained = serve.terminate();
    assert!(drained.contains("\"timed_out\": false"), "{drained}");

    let serve = Serve::start(&root);
    assert!(serve.text("/campaigns/0").contains("\"state\":\"done\""));
    assert_eq!(serve.get("/campaigns/0/points/0/image"), image);
    serve.terminate();
    std::fs::remove_dir_all(&root).unwrap();
}
