//! Integration suite for `busnet serve`: the always-on batch
//! evaluation service. Each test spawns the real binary on a private
//! Unix socket and speaks the JSON-line protocol over real
//! connections, covering the serving contract end to end:
//!
//! * concurrent identical requests from different clients produce
//!   byte-identical rows backed by exactly one evaluator call;
//! * malformed JSON, unknown evaluators, and out-of-domain scenarios
//!   earn structured error replies without panicking the server or
//!   dropping the connection;
//! * SIGTERM drains in-flight work — owed replies are written before
//!   the process exits cleanly.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use busnet::core::serve::MAX_REQUEST_BYTES;

/// A serve process bound to a private Unix socket; killed (and its
/// socket removed) on drop so a failing test never leaks a server.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(tag: &str, extra: &[&str]) -> Server {
        let socket =
            std::env::temp_dir().join(format!("busnet-serve-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_busnet"))
            .arg("serve")
            .arg("--unix")
            .arg(&socket)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawns the server");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "server never bound {}", socket.display());
            std::thread::sleep(Duration::from_millis(10));
        }
        Server { child, socket }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connects");
        let reader = BufReader::new(stream.try_clone().expect("clones the stream"));
        Client { stream, reader }
    }

    /// SIGTERM the server and return its exit status.
    fn terminate(mut self) -> std::process::ExitStatus {
        signal_term(&self.child);
        let status = self.child.wait().expect("server exits");
        let _ = std::fs::remove_file(&self.socket);
        std::mem::forget(self);
        status
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn signal_term(child: &Child) {
    let status =
        Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().expect("kill runs");
    assert!(status.success(), "SIGTERM delivered");
}

/// One protocol connection: send request lines, read reply lines.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("request written");
        self.stream.write_all(b"\n").expect("request terminated");
        self.stream.flush().expect("request flushed");
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply readable");
        assert!(n > 0, "connection closed before a reply arrived");
        line.trim_end().to_owned()
    }
}

/// The `row` payload of a result reply — the bytes that must be
/// identical across duplicate requests.
fn row_of(reply: &str) -> &str {
    reply.split_once(",\"row\":").unwrap_or_else(|| panic!("no row in `{reply}`")).1
}

fn status_of(reply: &str) -> &str {
    reply
        .split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .unwrap_or_else(|| panic!("no status in `{reply}`"))
        .0
}

const POINT: &str = r#""scenario":{"n":8,"m":16,"r":8,"buffering":"buffered"},"evaluator":"pfqn""#;

/// Concurrent identical requests from separate connections: every
/// reply carries byte-identical row bytes, exactly one request is
/// `fresh`, and the server's evaluator-call meter reads one.
#[test]
fn duplicate_requests_are_bit_identical_with_one_evaluator_call() {
    let server = Server::spawn("dedup", &[]);
    let clients = 4;
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = server.connect();
                scope.spawn(move || {
                    client.send(&format!(r#"{{"id":{c},{POINT}}}"#));
                    client.reply()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let rows: Vec<&str> = replies.iter().map(|r| row_of(r)).collect();
    assert!(rows.iter().all(|r| *r == rows[0]), "duplicate rows diverged: {replies:?}");
    let fresh = replies.iter().filter(|r| status_of(r) == "fresh").count();
    let cached = replies.iter().filter(|r| status_of(r) == "cached").count();
    assert_eq!(fresh, 1, "exactly one request evaluates: {replies:?}");
    assert_eq!(cached, clients - 1, "every duplicate replays it: {replies:?}");

    let mut stats = server.connect();
    stats.send(r#"{"id":"s","op":"stats"}"#);
    let reply = stats.reply();
    assert!(
        reply.contains("\"evaluator_calls\":1"),
        "duplicates cost zero extra evaluator calls: {reply}"
    );
    assert!(server.terminate().success(), "clean shutdown");
}

/// A connection that sends garbage keeps working: malformed JSON,
/// unknown evaluators, bad parameters, and out-of-domain points each
/// earn one structured reply, and a well-formed request afterwards
/// still evaluates.
#[test]
fn bad_requests_earn_structured_errors_and_the_connection_survives() {
    let server = Server::spawn("errors", &[]);
    let mut client = server.connect();
    // Nesting this deep once overflowed the parser's stack and aborted
    // the whole server.
    let too_deep = "[".repeat(300_000);
    let too_long = format!(r#"{{"id":15,"pad":"{}"}}"#, "x".repeat(MAX_REQUEST_BYTES));
    let cases = [
        (too_deep.as_str(), "error", "malformed"),
        (too_long.as_str(), "error", "exceeds"),
        ("{definitely not json", "error", "malformed"),
        (
            r#"{"id":10,"scenario":{"n":8,"m":16,"r":8},"evaluator":"frobnicator"}"#,
            "error",
            "unknown evaluator",
        ),
        (
            r#"{"id":11,"scenario":{"n":0,"m":16,"r":8},"evaluator":"pfqn"}"#,
            "error",
            "invalid parameter",
        ),
        (
            r#"{"id":12,"scenario":{"n":8,"m":16,"r":8},"frobnicate":true}"#,
            "error",
            "unknown request field",
        ),
        (r#"{"id":13,"op":"reboot"}"#, "error", "unknown op"),
        // Four billion replications once aborted the whole server on a
        // failed allocation in the sweep plan.
        (
            r#"{"id":8,"scenario":{"n":8,"m":16,"r":8},"evaluator":"sim","budget":{"replications":4000000000,"cycles":1,"warmup":0}}"#,
            "error",
            "replications",
        ),
        // In-domain parse, out-of-domain evaluation: the exact chain
        // needs memory priority, so the default point fails cleanly.
        (
            r#"{"id":14,"scenario":{"n":4,"m":4,"r":4},"evaluator":"exact"}"#,
            "failed",
            "does not support",
        ),
        // The approximation once overflowed here and came back as
        // `"ebw":NaN`, which is not JSON; it now answers.
        (
            r#"{"id":16,"scenario":{"n":160,"m":256,"r":8,"policy":"mem"},"evaluator":"approx"}"#,
            "fresh",
            r#""ebw":5.000000"#,
        ),
        // Both surjection counts of the reduced chain pass f64::MAX at
        // n = 512, m = 8, which once made its rows NaN; it now answers.
        (
            r#"{"id":18,"scenario":{"n":512,"m":8,"r":8},"evaluator":"reduced"}"#,
            "fresh",
            r#""ebw":4.999660"#,
        ),
        (
            r#"{"id":19,"scenario":{"n":512,"m":8,"r":8,"buffering":"buffered"},"evaluator":"approx-depth"}"#,
            "fresh",
            r#""ebw":4.999830"#,
        ),
        // Past the reduced-chain state ceiling: out of domain at once,
        // never a dense solve of tens of thousands of states.
        (
            r#"{"id":20,"scenario":{"n":192,"m":192,"r":8,"buffering":"buffered"},"evaluator":"approx-depth"}"#,
            "failed",
            "does not support",
        ),
        // A crossbar run far past its unit budget once ran to the end
        // before failing; it now stops within one slice.
        (
            r#"{"id":17,"scenario":{"n":8192,"m":8192,"r":8},"evaluator":"crossbar-sim","unit_budget":{"events":1000}}"#,
            "failed",
            "unit budget exceeded",
        ),
    ];
    for (request, status, needle) in cases {
        client.send(request);
        let reply = client.reply();
        assert_eq!(status_of(&reply), status, "for `{request}`: {reply}");
        assert!(reply.contains(needle), "for `{request}`: {reply}");
    }
    client.send(&format!(r#"{{"id":99,{POINT}}}"#));
    let reply = client.reply();
    assert_eq!(status_of(&reply), "fresh", "connection survives the abuse: {reply}");
    assert!(server.terminate().success(), "no panic under protocol abuse");
}

/// SIGTERM with a request in flight: the reply still arrives, the
/// connection then closes, and the server exits successfully.
#[test]
fn sigterm_drains_in_flight_requests() {
    let server = Server::spawn("drain", &[]);
    let mut client = server.connect();
    // A simulation chunky enough to still be running when the signal
    // lands (4 replications x 200k cycles, debug build).
    client.send(
        r#"{"id":"inflight","scenario":{"n":8,"m":16,"r":8},"evaluator":"sim","budget":{"replications":4,"cycles":200000}}"#,
    );
    std::thread::sleep(Duration::from_millis(150));
    signal_term(&server.child);
    let reply = client.reply();
    assert_eq!(status_of(&reply), "fresh", "in-flight work drained: {reply}");
    assert!(reply.contains("\"id\":\"inflight\""), "{reply}");
    // Nothing further is owed: the server closes the connection.
    let mut rest = String::new();
    let n = client.reader.read_line(&mut rest).expect("EOF readable");
    assert_eq!(n, 0, "no stray output after the drain: {rest}");
    let mut server = server;
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "graceful exit after drain");
    assert!(!Path::new(&server.socket).exists(), "socket file removed on shutdown");
}

/// Requests answered from a shared `--cache-dir` journal replay
/// byte-identically across server restarts: a second server process
/// serves the first process's rows as `cached` with zero evaluator
/// calls.
#[test]
fn cache_dir_replays_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("busnet-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let cache = dir.to_str().expect("utf-8 temp dir");

    let server = Server::spawn("warmup", &["--cache-dir", cache]);
    let mut client = server.connect();
    client.send(&format!(r#"{{"id":1,{POINT}}}"#));
    let first = client.reply();
    assert_eq!(status_of(&first), "fresh");
    assert!(server.terminate().success());

    let server = Server::spawn("replay", &["--cache-dir", cache]);
    let mut client = server.connect();
    client.send(&format!(r#"{{"id":2,{POINT}}}"#));
    let second = client.reply();
    assert_eq!(status_of(&second), "cached", "journal replay: {second}");
    assert_eq!(row_of(&first), row_of(&second), "replayed rows are byte-identical");
    let mut stats = server.connect();
    stats.send(r#"{"id":"s","op":"stats"}"#);
    let reply = stats.reply();
    assert!(reply.contains("\"evaluator_calls\":0"), "warm start evaluates nothing: {reply}");
    assert!(server.terminate().success());
    let _ = std::fs::remove_dir_all(&dir);
}
