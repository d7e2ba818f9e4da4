//! Minimal dependency-free HTTP/1.0 server for observability endpoints.
//!
//! A production allocator-as-a-service must be scrapeable from *outside*
//! the process — Prometheus, a readiness probe, an engineer with curl —
//! without dragging an async runtime or an HTTP framework into a crate
//! whose whole point is dependency-free measurement. This server speaks
//! just enough HTTP for that job: `GET` on exact paths, one response per
//! connection, `Connection: close`. Every response carries a correct
//! `Content-Length`, so any HTTP/1.x client can consume it.
//!
//! Robustness over features: the accept loop is non-blocking and
//! poll-driven so [`HttpServer::stop`] always terminates promptly; each
//! connection is served on its own thread (scrapes are rare and cheap —
//! thread spawn is noise next to the handler's snapshot work) with a
//! read timeout so a stalled client cannot wedge a handler thread
//! forever; request lines are capped so a garbage client cannot balloon
//! memory.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Longest request line (method + path + version) accepted, bytes.
/// Beyond this the server answers `431` without reading further.
pub const MAX_REQUEST_LINE: usize = 4096;

/// Per-connection read timeout: a client that connects and then stalls
/// gets this long to produce a full request line.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-loop poll interval while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// One HTTP response: status, media type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 404, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    #[must_use]
    pub fn ok_text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn ok_json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `503 Service Unavailable` plain-text response (the tier is
    /// gone or not ready).
    #[must_use]
    pub fn unavailable(body: impl Into<String>) -> Response {
        Response {
            status: 503,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let head = format!(
            "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        // A client that hung up mid-response is its own problem.
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(self.body.as_bytes());
        let _ = stream.flush();
    }
}

type Handler = Box<dyn Fn() -> Response + Send + Sync>;

/// Exact-path GET routing table.
#[derive(Default)]
pub struct Router {
    routes: Vec<(&'static str, Handler)>,
}

impl Router {
    /// An empty router (every request 404s).
    #[must_use]
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a handler for an exact path (e.g. `"/metrics"`).
    #[must_use]
    pub fn route(
        mut self,
        path: &'static str,
        handler: impl Fn() -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push((path, Box::new(handler)));
        self
    }

    /// Registered paths, in registration order (used by the `/` index).
    #[must_use]
    pub fn paths(&self) -> Vec<&'static str> {
        self.routes.iter().map(|(p, _)| *p).collect()
    }

    fn dispatch(&self, path: &str) -> Response {
        for (p, h) in &self.routes {
            if *p == path {
                return h();
            }
        }
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("no such endpoint: {path}\n"),
        }
    }
}

/// A running observability HTTP server. Dropping it stops the accept
/// loop and joins it.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port — the bound
    /// address is available via [`HttpServer::addr`]) and starts the
    /// accept loop on a background thread.
    pub fn start(addr: impl ToSocketAddrs, router: Router) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let router = Arc::new(router);
        let accept_loop = thread::Builder::new()
            .name("ngm-observer-http".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let router = Arc::clone(&router);
                            // Detached: the read timeout bounds each
                            // connection's lifetime, so stop() never
                            // waits on a stalled client.
                            let _ = thread::Builder::new()
                                .name("ngm-observer-conn".into())
                                .spawn(move || serve_connection(stream, &router));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => thread::sleep(POLL_INTERVAL),
                    }
                }
            })?;
        Ok(HttpServer {
            addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it; a second call, or the drop
    /// that follows, does nothing. In-flight connection threads finish
    /// on their own (bounded by [`READ_TIMEOUT`] plus handler time).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(mut stream: TcpStream, router: &Router) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let response = match read_request_line(&mut stream) {
        RequestLine::Get(path) => router.dispatch(&path),
        RequestLine::OtherMethod => Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "only GET is supported\n".into(),
        },
        RequestLine::TooLong => Response {
            status: 431,
            content_type: "text/plain; charset=utf-8",
            body: "request line too long\n".into(),
        },
        RequestLine::Malformed => Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: "malformed request\n".into(),
        },
        RequestLine::Dead => return,
    };
    response.write_to(&mut stream);
    // Closing a socket with unread request bytes (the headers we never
    // parse) makes the kernel send RST, which can destroy the response
    // before the client reads it. Half-close our side, then drain the
    // peer's leftovers until it hangs up — bounded by the read timeout
    // and a byte cap, so a hostile client cannot pin this thread.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scrap = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match stream.read(&mut scrap) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

enum RequestLine {
    Get(String),
    OtherMethod,
    TooLong,
    Malformed,
    Dead,
}

/// Reads up to the first CRLF (or LF), bounded by [`MAX_REQUEST_LINE`].
/// Remaining request headers are irrelevant — the response closes the
/// connection — so they are left unread in the socket buffer.
fn read_request_line(stream: &mut TcpStream) -> RequestLine {
    let mut line: Vec<u8> = Vec::with_capacity(128);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                // Peer closed before finishing the request line: a
                // partial request gets a 400 if it sent anything, and
                // silence if it sent nothing.
                return if line.is_empty() {
                    RequestLine::Dead
                } else {
                    RequestLine::Malformed
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if byte[0] != b'\r' {
                    line.push(byte[0]);
                }
                if line.len() > MAX_REQUEST_LINE {
                    return RequestLine::TooLong;
                }
            }
            // Timeout or hard error mid-line: treat like a hangup.
            Err(_) => {
                return if line.is_empty() {
                    RequestLine::Dead
                } else {
                    RequestLine::Malformed
                };
            }
        }
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return RequestLine::Malformed;
    }
    if method != "GET" {
        return RequestLine::OtherMethod;
    }
    // Strip any query string: routes are exact paths.
    let path = target.split('?').next().unwrap_or(target).to_string();
    RequestLine::Get(path)
}

/// Blocking one-shot GET against a local server; returns
/// `(status, body)`. This is the client half used by tests, the bench
/// harness, and examples — kept here so nothing outside the telemetry
/// crate needs an HTTP client either.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: ngm\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed HTTP response"))
}

fn parse_response(raw: &str) -> Option<(u16, String)> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status_line = head.lines().next()?;
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> HttpServer {
        let router = Router::new()
            .route("/ping", || Response::ok_text("pong\n"))
            .route("/json", || Response::ok_json("{\"ok\":true}"));
        HttpServer::start("127.0.0.1:0", router).expect("bind ephemeral port")
    }

    #[test]
    fn serves_registered_route() {
        let mut server = test_server();
        let (status, body) = http_get(server.addr(), "/ping").expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "pong\n");
        server.stop();
    }

    #[test]
    fn unknown_path_is_404() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/nope").expect("request");
        assert_eq!(status, 404);
        assert!(body.contains("/nope"));
    }

    #[test]
    fn query_strings_are_stripped() {
        let server = test_server();
        let (status, _) = http_get(server.addr(), "/ping?verbose=1").expect("request");
        assert_eq!(status, 200);
    }

    #[test]
    fn non_get_method_is_405() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "POST /ping HTTP/1.0\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
    }

    #[test]
    fn oversized_request_line_is_431() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let long_path = "a".repeat(MAX_REQUEST_LINE + 64);
        write!(stream, "GET /{long_path} HTTP/1.0\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.0 431"), "{raw}");
    }

    #[test]
    fn partial_request_gets_400() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        // Half a request line, then a clean FIN.
        write!(stream, "GET /pi").expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.0 400"), "{raw}");
    }

    #[test]
    fn responses_carry_content_length() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(stream, "GET /ping HTTP/1.0\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.contains("Content-Length: 5"), "{raw}");
        assert!(raw.contains("Connection: close"), "{raw}");
    }

    #[test]
    fn concurrent_requests_are_all_served() {
        let server = test_server();
        let addr = server.addr();
        let workers: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let (status, body) = http_get(addr, "/ping").expect("request");
                    assert_eq!(status, 200);
                    assert_eq!(body, "pong\n");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
    }

    #[test]
    fn stop_terminates_promptly() {
        let mut server = test_server();
        let addr = server.addr();
        let started = std::time::Instant::now();
        server.stop();
        assert!(started.elapsed() < Duration::from_secs(1));
        // The listener is gone: new connections must fail (either
        // refused outright or reset on first read).
        let gone = match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                let _ = write!(s, "GET /ping HTTP/1.0\r\n\r\n");
                let mut raw = String::new();
                s.read_to_string(&mut raw).is_err() || raw.is_empty()
            }
        };
        assert!(gone, "accept loop still serving after stop");
    }
}
