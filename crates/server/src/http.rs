//! A hand-rolled HTTP/1.0 metrics endpoint — `GET /metrics` in
//! Prometheus text exposition format, zero dependencies.
//!
//! The serving stack's wire protocol is a binary framed TCP surface
//! (`RTKWIRE1`); ops tooling wants plain HTTP it can `curl` and scrape.
//! This module bridges the two with the smallest possible server: one
//! background thread per process, a non-blocking accept loop polled every
//! ~100 ms (so it notices shutdown without a wake-up socket), and one
//! request handled at a time — a scrape is a single small response, so
//! serial handling is plenty and keeps the thread count flat.
//!
//! Scrapes read the same atomic counters the serve loop updates
//! ([`crate::metrics::ServerMetrics`]); they never touch the engine or
//! the backends, so a scrape can never perturb query answers or health
//! state (the determinism contract extends to observers).

use crate::handler::ServiceHost;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a scrape client may dawdle before the socket is dropped — a
/// stuck scraper must not wedge the endpoint for the next one.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-poll interval; also bounds shutdown latency of the thread.
const ACCEPT_POLL: Duration = Duration::from_millis(100);
/// Request headers beyond this are ignored (a scrape request is tiny).
const MAX_REQUEST_BYTES: usize = 8192;

/// What the endpoint serves: a Prometheus text rendering of a wire host
/// (the thread exits once the host starts shutting down).
pub(crate) trait MetricsSource: ServiceHost {
    /// Renders the current counters in Prometheus text format.
    fn render_metrics(&self) -> String;
}

/// Binds `addr`, spawns the endpoint thread, and returns the bound
/// address (resolving an ephemeral `:0` port for tests).
pub(crate) fn spawn_metrics_endpoint<S: MetricsSource>(
    addr: &str,
    source: Arc<S>,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    std::thread::spawn(move || accept_loop(listener, source));
    Ok(local)
}

fn accept_loop<S: MetricsSource>(listener: TcpListener, source: Arc<S>) {
    while !source.host().shutting_down() {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Handled inline and blocking: one scrape at a time.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
                handle_scrape(&mut stream, source.as_ref());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // A transient accept error (EMFILE, aborted handshake) must
            // not kill the endpoint; back off and keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads the request head, routes on the request line, writes one
/// `Connection: close` response. Every I/O error is swallowed — a failed
/// scrape is the scraper's problem, never the server's.
fn handle_scrape<S: MetricsSource>(stream: &mut TcpStream, source: &S) {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                let complete = head.windows(4).any(|w| w == b"\r\n\r\n");
                if complete || head.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = head.split(|&b| b == b'\r' || b == b'\n').next().unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", source.render_metrics()),
        ("GET", _) => ("404 Not Found", "only GET /metrics is served here\n".to_string()),
        _ => ("405 Method Not Allowed", "only GET /metrics is served here\n".to_string()),
    };
    let header = format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::Host;
    use crate::metrics::RequestKind;
    use crate::wire::{Request, Response};
    use std::sync::atomic::Ordering;

    struct FakeSource(Host);

    impl ServiceHost for FakeSource {
        fn host(&self) -> &Host {
            &self.0
        }

        fn dispatch(&self, _: Request) -> (RequestKind, Response) {
            unreachable!("the metrics endpoint never dispatches wire requests")
        }
    }

    impl MetricsSource for FakeSource {
        fn render_metrics(&self) -> String {
            "# TYPE rtk_requests_total counter\nrtk_requests_total{kind=\"ping\"} 3\n".to_string()
        }
    }

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let unbound = "127.0.0.1:0".parse().unwrap();
        let source = Arc::new(FakeSource(Host::new(unbound, 1024, None, 0, 0)));
        let addr = spawn_metrics_endpoint("127.0.0.1:0", Arc::clone(&source)).unwrap();

        let ok = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("Content-Type: text/plain; version=0.0.4"), "{ok}");
        assert!(ok.contains("rtk_requests_total{kind=\"ping\"} 3"), "{ok}");

        let missing = scrape(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"), "{missing}");

        let post = scrape(addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"), "{post}");

        source.0.shutdown.store(true, Ordering::SeqCst);
    }
}
