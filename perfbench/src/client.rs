//! Closed-loop HTTP/1.1 load over keep-alive loopback connections: each
//! client sends its next `POST /advise` only after the previous response
//! has been read and checked.

use crate::stats::Tally;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One keep-alive connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Send one request and read the response: status, body, and whether
    /// the server will close the connection.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String, bool)> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut payload = vec![0u8; length];
        self.reader.read_exact(&mut payload)?;
        let body = String::from_utf8(payload).map_err(|_| bad("body is not UTF-8"))?;
        Ok((status, body, close))
    }
}

/// One closed-loop client: a keep-alive connection, opened on first use
/// and again after the server closes it, kept across calls to [`run`].
///
/// [`run`]: Client::run
pub struct Client {
    addr: SocketAddr,
    connection: Option<Connection>,
    reported: u32,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            connection: None,
            reported: 0,
        }
    }

    /// Send requests until `next` stops yielding bodies; `check` decides
    /// whether a 200 response body answers its request correctly.
    pub fn run(
        &mut self,
        mut next: impl FnMut() -> Option<String>,
        check: &(dyn Fn(&str, &str) -> Result<(), String> + Sync),
    ) -> Tally {
        let mut tally = Tally::default();
        while let Some(body) = next() {
            let started = Instant::now();
            if self.connection.is_none() {
                self.connection = Connection::open(self.addr).ok();
            }
            let Some(conn) = self.connection.as_mut() else {
                tally.failure();
                continue;
            };
            match conn.post("/advise", &body) {
                Ok((status, response, close)) => {
                    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                    match status {
                        200 => match check(&body, &response) {
                            Ok(()) => tally.success(latency_ms),
                            Err(why) => {
                                tally.failure();
                                self.report(format_args!("wrong answer: {why}"));
                            }
                        },
                        429 | 503 => tally.refusal(),
                        _ => {
                            tally.failure();
                            self.report(format_args!("status {status}: {response}"));
                        }
                    }
                    if close {
                        self.connection = None;
                    }
                }
                Err(error) => {
                    tally.failure();
                    self.report(format_args!("connection error: {error}"));
                    self.connection = None;
                }
            }
        }
        tally
    }

    /// Print the first few failures only.
    fn report(&mut self, what: std::fmt::Arguments) {
        if self.reported < 3 {
            self.reported += 1;
            eprintln!("perfbench: {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Answer each request on `listener` with the next scripted
    /// `(status, body, close)`.
    fn scripted_server(listener: TcpListener, script: Vec<(u16, &'static str, bool)>) {
        let mut script = script.into_iter();
        for stream in listener.incoming() {
            let stream = stream.expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            loop {
                let mut length = 0;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).expect("read") == 0 {
                        break;
                    }
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().expect("length");
                    }
                }
                if line.is_empty() {
                    break;
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).expect("body");
                let Some((status, body, close)) = script.next() else {
                    return;
                };
                let connection = if close { "close" } else { "keep-alive" };
                let response = format!(
                    "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                    body.len()
                );
                writer.write_all(response.as_bytes()).expect("write");
                if close {
                    break;
                }
            }
            if script.len() == 0 {
                return;
            }
        }
    }

    #[test]
    fn refusals_errors_and_wrong_answers_are_attempted_and_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let script = vec![
            (200, "good", false),
            (429, "busy", false),
            (500, "boom", false),
            (200, "wrong", true),
            (200, "good", false),
        ];
        let server = std::thread::spawn(move || scripted_server(listener, script));
        let mut left = 5;
        let next = || {
            (left > 0).then(|| {
                left -= 1;
                "{}".to_string()
            })
        };
        let check = |_: &str, response: &str| {
            if response == "good" {
                Ok(())
            } else {
                Err(response.to_string())
            }
        };
        let tally = Client::new(addr).run(next, &check);
        server.join().expect("server thread");
        assert_eq!(tally.attempted(), 5);
        assert_eq!(tally.succeeded(), 2);
        assert_eq!(tally.failed, 3);
        assert_eq!(tally.refused, 1);
    }
}
