//! The HTTP front of a [`Service`], hand-rolled on std TCP: accept loop,
//! request reading under a deadline, routing, and the SSE writer.

use super::hub::Next;
use super::{AdmissionError, CampaignRequest, Service, MAX_BODY_BYTES, MAX_HEAD_BYTES, SSE_TICK};
use serde::Serialize;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The HTTP front of a [`Service`]: one accept thread, one thread per
/// connection, panic-contained handlers, per-request read deadlines.
pub struct Server {
    service: Service,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `service` in background threads.
    pub fn start(service: Service, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = service.clone();
            let stop = stop.clone();
            thread::Builder::new()
                .name("eth-serve-accept".to_string())
                .spawn(move || accept_loop(listener, service, stop))?
        };
        Ok(Server {
            service,
            addr: local,
            stop,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop accepting connections (existing SSE streams run to their
    /// campaign's end on their own threads). Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: Service, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let service = service.clone();
        let _ = thread::Builder::new()
            .name("eth-serve-conn".to_string())
            .spawn(move || handle_connection(service, stream));
    }
}

/// Panic containment boundary: a handler panic becomes a 500 and a
/// counter, never a dead server.
fn handle_connection(service: Service, stream: TcpStream) {
    let spare = stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(&service, stream)));
    if outcome.is_err() {
        service.add_metric("connection_panics_total", 1.0);
        if let Some(mut s) = spare {
            let _ = write_response(&mut s, &Response::error(500, "internal server error"));
        }
    }
}

enum RequestError {
    /// The read deadline expired mid-request (408).
    Timeout,
    /// The request breaks a head rule or ends early (431/413/400).
    Refused(HeadError),
    /// The client closed before sending anything; not an error.
    Closed,
}

/// What [`parse_head`] found in a complete request head.
#[derive(Debug, PartialEq, Eq)]
struct Head {
    method: String,
    path: String,
    /// The declared body length (0 without a `Content-Length`).
    content_length: usize,
    /// Offset of the body's first byte: just past the blank line.
    body_start: usize,
}

/// What [`parse_head`] makes of a buffer: a head, "need more bytes", or a
/// refusal.
type ParsedHead = std::result::Result<Option<Head>, HeadError>;

/// Why a request is refused before routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadError {
    /// The head ends past [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// Unparseable or truncated (400).
    Bad(&'static str),
}

impl HeadError {
    fn response(self) -> Response {
        match self {
            HeadError::HeadTooLarge => Response::error(431, "request head too large"),
            HeadError::BodyTooLarge => Response::error(413, "request too large"),
            HeadError::Bad(msg) => Response::error(400, msg),
        }
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    retry_after: Option<u64>,
}

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

impl Response {
    fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// `value` serialized as the body.
    fn json(status: u16, value: &impl Serialize) -> Response {
        Response::new(status, JSON, serde_json::to_string(value).unwrap_or_default())
    }

    /// `{"error": message}` with `status`.
    fn error(status: u16, message: impl Into<String>) -> Response {
        #[derive(Serialize)]
        struct ErrorBody {
            error: String,
        }
        Response::json(status, &ErrorBody { error: message.into() })
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "OK",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Read one HTTP/1.1 request under a wall-clock deadline enforced
/// through socket read timeouts. The loop owns the deadline, the reads and
/// the body; [`parse_head`] owns every rule about the head.
fn read_request(stream: &mut TcpStream, deadline: Duration) -> std::result::Result<(Head, Vec<u8>), RequestError> {
    let until = Instant::now() + deadline;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head = loop {
        if let Some(head) = parse_head(&buf).map_err(RequestError::Refused)? {
            break head;
        }
        if read_some(stream, &mut buf, until)? == 0 {
            return Err(if buf.is_empty() {
                RequestError::Closed
            } else {
                RequestError::Refused(HeadError::Bad("truncated request head"))
            });
        }
    };
    let end = head.body_start + head.content_length;
    while buf.len() < end {
        if read_some(stream, &mut buf, until)? == 0 {
            return Err(RequestError::Refused(HeadError::Bad("truncated body")));
        }
    }
    buf.truncate(end);
    buf.drain(..head.body_start);
    Ok((head, buf))
}

/// One read of at most 1 KiB appended to `buf`, timed out at `until`.
/// Returns the byte count, 0 at the end of the stream.
fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>, until: Instant) -> std::result::Result<usize, RequestError> {
    let left = until.checked_duration_since(Instant::now()).ok_or(RequestError::Timeout)?;
    let _ = stream.set_read_timeout(Some(left.max(Duration::from_millis(1))));
    let mut chunk = [0u8; 1024];
    match stream.read(&mut chunk) {
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(n)
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Err(RequestError::Timeout)
        }
        Err(_) => Err(RequestError::Closed),
    }
}

/// Parse the request head at the front of `buf`: `Ok(None)` while more
/// bytes are needed, the [`Head`] once its blank line is in, or the rule it
/// breaks. Pure and total; it allocates only the method and the path.
///
/// * The head, blank line included, ends within [`MAX_HEAD_BYTES`] (else
///   431); past that many bytes without one, no later byte can help.
/// * The request line names a method and a path, and the head is UTF-8.
/// * `Content-Length` is decimal digits, at most [`MAX_BODY_BYTES`] (else
///   413), and repeated only with the same value (RFC 9112 §6.3).
fn parse_head(buf: &[u8]) -> ParsedHead {
    let window = &buf[..buf.len().min(MAX_HEAD_BYTES)];
    let Some(blank) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() >= MAX_HEAD_BYTES {
            Err(HeadError::HeadTooLarge)
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..blank]).map_err(|_| HeadError::Bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().ok_or(HeadError::Bad("missing method"))?;
    let path = request_line.next().ok_or(HeadError::Bad("missing path"))?;
    let mut content_length = None;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HeadError::Bad("bad content-length"));
        }
        let n: usize = value.parse().map_err(|_| HeadError::BodyTooLarge)?;
        if content_length.is_some_and(|seen| seen != n) {
            return Err(HeadError::Bad("conflicting content-length"));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HeadError::BodyTooLarge);
    }
    Ok(Some(Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        body_start: blank + 4,
    }))
}

fn handle_request(service: &Service, mut stream: TcpStream) {
    let t0 = Instant::now();
    let deadline = Duration::from_millis(service.policy().request_deadline_ms.max(1));
    let (head, body) = match read_request(&mut stream, deadline) {
        Ok(request) => request,
        Err(RequestError::Closed) => return,
        Err(RequestError::Timeout) => {
            service.add_metric("deadline_expired_total", 1.0);
            let _ = write_response(&mut stream, &Response::error(408, "request deadline exceeded"));
            return;
        }
        Err(RequestError::Refused(e)) => {
            let _ = write_response(&mut stream, &e.response());
            return;
        }
    };
    service.add_metric("requests_total", 1.0);
    let path_only = head.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path_only.split('/').filter(|s| !s.is_empty()).collect();

    // SSE is the one route that streams instead of returning a response.
    if let ("GET", ["campaigns", id, "events"]) = (head.method.as_str(), &segments[..]) {
        handle_sse(service, id, stream);
        return;
    }

    let response = route(service, &head.method, &body, &segments);
    service.observe_metric("request_s", t0.elapsed().as_secs_f64());
    let _ = write_response(&mut stream, &response);
}

fn route(service: &Service, method: &str, body: &[u8], segments: &[&str]) -> Response {
    match (method, segments) {
        ("GET", ["healthz"]) => Response::new(200, TEXT, "ok\n"),
        ("GET", ["readyz"]) => {
            if service.is_draining() {
                Response::new(503, TEXT, "draining\n")
            } else {
                Response::new(200, TEXT, "ready\n")
            }
        }
        ("GET", ["metrics"]) => Response::new(200, TEXT, service.metrics_text()),
        ("POST", ["campaigns"]) => {
            let body = match std::str::from_utf8(body) {
                Ok(s) => s,
                Err(_) => return Response::error(400, "body is not utf-8"),
            };
            let req: CampaignRequest = match serde_json::from_str(body) {
                Ok(r) => r,
                Err(e) => return Response::error(400, format!("bad campaign request: {e}")),
            };
            match service.submit(&req) {
                Ok(status) => Response::json(201, &status),
                Err(AdmissionError::Draining) => Response::error(503, "service is draining"),
                Err(AdmissionError::Shed { retry_after_s, reason }) => Response {
                    retry_after: Some(retry_after_s),
                    ..Response::error(429, reason)
                },
                Err(AdmissionError::Invalid(msg)) => Response::error(400, msg),
                Err(AdmissionError::Io(e)) => Response::error(500, e.to_string()),
            }
        }
        ("GET", ["campaigns"]) => Response::json(200, &service.list()),
        ("GET", ["campaigns", id]) => match id.parse::<usize>().ok().and_then(|id| service.status(id)) {
            Some(status) => Response::json(200, &status),
            None => Response::error(404, "no such campaign"),
        },
        ("DELETE", ["campaigns", id]) => match id.parse::<usize>() {
            Ok(id) if service.cancel(id) => Response::new(202, JSON, "{\"canceled\":true}"),
            Ok(id) if service.status(id).is_some() => {
                Response::error(409, "campaign is not running")
            }
            _ => Response::error(404, "no such campaign"),
        },
        ("GET", ["campaigns", id, "trace"]) => {
            match id.parse::<usize>().ok().and_then(|id| service.campaign_trace(id)) {
                Some(body) => Response::new(200, JSON, body),
                None => Response::error(404, "campaign has no stitched trace"),
            }
        }
        ("GET", ["campaigns", id, "points", index, "image"]) => {
            match (id.parse::<usize>(), index.parse::<usize>()) {
                (Ok(id), Ok(index)) => match service.point_png(id, index) {
                    Some(png) => Response::new(200, "image/png", png),
                    None => Response::error(404, "point has no finished image"),
                },
                _ => Response::error(404, "bad campaign or point id"),
            }
        }
        ("POST", ["drain"]) => Response::json(200, &service.drain()),
        _ => Response::error(404, "no such route"),
    }
}

/// Stream a campaign's events as SSE until the campaign ends or the
/// client disconnects. Writes go through a short write timeout so a
/// stalled client is detected within ~2 ticks; the subscriber's bounded
/// queue means the scheduler never waits on this socket.
fn handle_sse(service: &Service, id: &str, mut stream: TcpStream) {
    let Some((id, sub)) = id.parse().ok().and_then(|id| Some((id, service.subscribe(id)?))) else {
        let _ = write_response(&mut stream, &Response::error(404, "no such campaign"));
        return;
    };
    service.add_metric("sse_subscribers_total", 1.0);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
    let mut disconnected = stream.write_all(head.as_bytes()).is_err();
    while !disconnected {
        match sub.next(SSE_TICK) {
            Next::Event(ev) => {
                let frame = format!("event: {}\ndata: {}\n\n", ev.name, ev.data);
                disconnected = stream.write_all(frame.as_bytes()).is_err() || stream.flush().is_err();
            }
            Next::Idle => {
                disconnected = stream.write_all(b": keepalive\n\n").is_err() || stream.flush().is_err();
            }
            Next::Closed => break,
        }
    }
    if disconnected {
        service.add_metric("sse_disconnects_total", 1.0);
    }
    let dropped = sub.dropped();
    if dropped > 0 {
        service.add_metric("sse_dropped_events_total", dropped as f64);
    }
    service.unsubscribe(id, &sub, disconnected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    #[test]
    fn error_bodies_escape_through_the_one_serializer() {
        let body = Response::error(400, "a\"b\\c\n\u{1}").body;
        assert_eq!(body, br#"{"error":"a\"b\\c\n\u0001"}"#);
    }

    /// `request_line`'s head padded by one header to exactly `len` bytes,
    /// blank line included.
    fn head_of_len(request_line: &str, len: usize) -> Vec<u8> {
        let fixed = format!("{request_line}\r\nX-Pad: \r\n\r\n").len();
        let pad = "a".repeat(len - fixed);
        format!("{request_line}\r\nX-Pad: {pad}\r\n\r\n").into_bytes()
    }

    fn head(method: &str, path: &str, content_length: usize, body_start: usize) -> Option<Head> {
        Some(Head {
            method: method.to_string(),
            path: path.to_string(),
            content_length,
            body_start,
        })
    }

    #[test]
    fn parse_head_rules() {
        use HeadError::{Bad, BodyTooLarge, HeadTooLarge};
        let get = "GET / HTTP/1.1";
        let mut at_cap_with_body = head_of_len(get, MAX_HEAD_BYTES);
        at_cap_with_body.extend_from_slice(b"body");
        let with_length = |value: &str| format!("POST /c HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
        let rows: Vec<(&str, Vec<u8>, ParsedHead)> = vec![
            ("a head and its body", b"GET / HTTP/1.1\r\n\r\nbody".to_vec(), Ok(head("GET", "/", 0, 18))),
            ("no blank line yet", b"partial\r\n".to_vec(), Ok(None)),
            ("nothing yet", Vec::new(), Ok(None)),
            ("a lone CR LF CR", b"GET / HTTP/1.1\r\n\r".to_vec(), Ok(None)),
            ("a head ending at the cap", head_of_len(get, MAX_HEAD_BYTES), Ok(head("GET", "/", 0, MAX_HEAD_BYTES))),
            ("bytes past a head at the cap", at_cap_with_body, Ok(head("GET", "/", 0, MAX_HEAD_BYTES))),
            ("a head ending one byte past the cap", head_of_len(get, MAX_HEAD_BYTES + 1), Err(HeadTooLarge)),
            ("the 17 334-byte head", head_of_len(get, 17_334), Err(HeadTooLarge)),
            ("a cap's worth without a blank line", vec![b'a'; MAX_HEAD_BYTES], Err(HeadTooLarge)),
            ("one byte short of that", vec![b'a'; MAX_HEAD_BYTES - 1], Ok(None)),
            ("a body at the cap", with_length(&MAX_BODY_BYTES.to_string()).into_bytes(), Ok(head("POST", "/c", MAX_BODY_BYTES, 45))),
            ("a body one byte past the cap", with_length(&(MAX_BODY_BYTES + 1).to_string()).into_bytes(), Err(BodyTooLarge)),
            ("a length past usize", with_length("99999999999999999999999").into_bytes(), Err(BodyTooLarge)),
            ("a signed length", with_length("+5").into_bytes(), Err(Bad("bad content-length"))),
            ("an empty length", with_length("").into_bytes(), Err(Bad("bad content-length"))),
            ("a length with a suffix", with_length("5x").into_bytes(), Err(Bad("bad content-length"))),
            (
                "a repeated length",
                b"POST /c HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\n".to_vec(),
                Ok(head("POST", "/c", 5, 58)),
            ),
            (
                "conflicting lengths",
                b"POST /c HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n".to_vec(),
                Err(Bad("conflicting content-length")),
            ),
            (
                "a length in any case, padded",
                b"POST /c?x=1 HTTP/1.1\r\ncontent-LENGTH:  2 \r\n\r\n{}".to_vec(),
                Ok(head("POST", "/c?x=1", 2, 45)),
            ),
            ("no path", b"GET\r\n\r\n".to_vec(), Err(Bad("missing path"))),
            ("no request line", b"\r\n\r\n".to_vec(), Err(Bad("missing method"))),
            ("a head that is not UTF-8", b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(), Err(Bad("non-utf8 head"))),
        ];
        for (what, input, want) in rows {
            assert_eq!(parse_head(&input), want, "{what}");
        }
    }

    #[test]
    fn head_bounds_hold_through_the_server() {
        let root = std::env::temp_dir().join(format!("eth-serve-head-{:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let svc = Service::new(&root, crate::serve::ServicePolicy::default()).unwrap();
        let server = Server::start(svc, "127.0.0.1:0").unwrap();
        let status_of = |raw: &[u8]| -> u16 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let _ = stream.write_all(raw);
            // a refusal closes the connection with bytes unread, so the
            // reply may end in a reset rather than an orderly end
            let mut reply = Vec::new();
            let mut chunk = [0u8; 1024];
            while let Ok(n @ 1..) = stream.read(&mut chunk) {
                reply.extend_from_slice(&chunk[..n]);
            }
            let reply = String::from_utf8_lossy(&reply);
            reply.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0)
        };
        let healthz = "GET /healthz HTTP/1.1";
        assert_eq!(status_of(&head_of_len(healthz, 17_334)), 431);
        assert_eq!(status_of(&head_of_len(healthz, MAX_HEAD_BYTES + 1)), 431);
        assert_eq!(status_of(&head_of_len(healthz, MAX_HEAD_BYTES)), 200);
        let too_long = format!("POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(status_of(too_long.as_bytes()), 413);
        let conflicting = b"GET /healthz HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab";
        assert_eq!(status_of(conflicting), 400);
        drop(server);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The system allocator, noting the largest single request each thread
    /// has made: `parse_head` may allocate no more at once than the bytes
    /// it was given.
    struct LargestRequest;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: a thread being torn down may allocate after its
        // locals are gone
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; `note` touches only a `Cell<usize>`
    // thread-local with a const initializer and no destructor, so it
    // neither allocates nor unwinds.
    unsafe impl GlobalAlloc for LargestRequest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: LargestRequest = LargestRequest;

    /// `parse_head(buf)` and the largest allocation it made.
    fn parse_noting_allocations(buf: &[u8]) -> (ParsedHead, usize) {
        LARGEST.with(|largest| largest.set(0));
        let parsed = parse_head(buf);
        (parsed, LARGEST.with(|largest| largest.get()))
    }

    /// Fragments a head is made of, so random input reaches every rule; an
    /// index past the end stands for one random byte.
    const PIECES: [&[u8]; 12] = [
        b"\r\n",
        b"\r\n\r\n",
        b":",
        b" ",
        b"Content-Length",
        b"content-length: ",
        b"GET ",
        b"/",
        b"7",
        b"4194305",
        b"\xff",
        b" HTTP/1.1",
    ];

    const METHODS: [&str; 4] = ["GET", "POST", "DELETE", "PATCH"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_head_is_total(
            pieces in prop::collection::vec((0usize..PIECES.len() + 4, 0u16..256), 0..1024),
            filler in prop::collection::vec(0u16..256, 0..20 * 1024),
            filled in 0u8..4,
        ) {
            let mut buf: Vec<u8> = Vec::new();
            if filled == 0 {
                buf.extend(filler.iter().map(|&b| b as u8));
            }
            for (piece, byte) in pieces {
                match PIECES.get(piece) {
                    Some(bytes) => buf.extend_from_slice(bytes),
                    None => buf.push(byte as u8),
                }
            }
            buf.truncate(20 * 1024);
            let (parsed, largest) = parse_noting_allocations(&buf);
            prop_assert!(largest <= buf.len(), "{} bytes allocated {largest} at once", buf.len());
            match parsed {
                Ok(None) => prop_assert!(buf.len() < MAX_HEAD_BYTES),
                Ok(Some(head)) => {
                    prop_assert!(head.body_start <= buf.len().min(MAX_HEAD_BYTES));
                    prop_assert!(head.content_length <= MAX_BODY_BYTES);
                    prop_assert_eq!(&buf[head.body_start - 4..head.body_start], b"\r\n\r\n");
                }
                Err(_) => {}
            }
        }

        #[test]
        fn valid_heads_round_trip_and_their_prefixes_need_more(
            method in 0usize..METHODS.len(),
            path in prop::collection::vec(0u8..36, 0..40),
            length in (0usize..3, 0usize..MAX_BODY_BYTES + 1),
            extra in prop::collection::vec((0u8..26, 0usize..60), 0..6),
            body in prop::collection::vec(0u16..256, 0..16),
        ) {
            let method = METHODS[method];
            let path: String = std::iter::once('/')
                .chain(path.iter().map(|&c| char::from_digit(c as u32, 36).unwrap()))
                .collect();
            let mut text = format!("{method} {path} HTTP/1.1\r\nHost: t\r\n");
            let (with_length, length) = length;
            let content_length = if with_length > 0 { length } else { 0 };
            if with_length > 0 {
                text.push_str(&format!("Content-Length: {length}\r\n"));
            }
            for (name, len) in extra {
                text.push_str(&format!("X-{}: {}\r\n", (b'a' + name) as char, "v".repeat(len)));
            }
            text.push_str("\r\n");
            let mut buf = text.into_bytes();
            let end = buf.len();
            for cut in 0..end {
                prop_assert_eq!(parse_head(&buf[..cut]), Ok(None), "prefix of {} bytes", cut);
            }
            buf.extend(body.iter().map(|&b| b as u8));
            let (parsed, largest) = parse_noting_allocations(&buf);
            prop_assert_eq!(parsed, Ok(head(method, &path, content_length, end)));
            prop_assert!(largest <= buf.len());
        }
    }
}
