//! Spawning the released `aeetes` binary (`serve`, `fleet`) and talking
//! NDJSON to it — the load generator's side of the wire.
//!
//! Hygiene the numbers depend on: the TCP client sets `TCP_NODELAY` and
//! sends each pre-serialised request in **one** write, so it can never be
//! the side that causes a Nagle/delayed-ACK stall; whatever stall remains
//! is the server's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to print its listen banner or to exit.
const CHILD_TIMEOUT: Duration = Duration::from_secs(20);

/// A spawned `aeetes` process that is killed and reaped when dropped.
pub struct ChildProc {
    child: Child,
    /// Children of the child (fleet replicas), killed on a forced stop.
    pub grandchildren: Vec<u32>,
}

impl ChildProc {
    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for a clean exit; kills (child and grandchildren) on timeout.
    pub fn wait_or_kill(&mut self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("child exited with {status}")),
                Ok(None) if started.elapsed() < CHILD_TIMEOUT => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => {
                    self.kill();
                    return Err("child did not exit after shutdown; killed".into());
                }
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in self.grandchildren.drain(..) {
            // Only reachable when a fleet coordinator had to be killed: its
            // replicas are not our children, so `kill(1)` is the only handle.
            let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

fn spawn(aeetes: &Path, args: &[&str], stdin: Stdio, log: &Path) -> Result<Child, String> {
    let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(aeetes)
        .args(args)
        .stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", aeetes.display()))
}

/// Reads stdout lines until the `listening on ADDR` banner; also collects
/// `replica N pid P at ADDR` lines a fleet prints before it.
fn read_banner(stdout: ChildStdout) -> Result<(String, Vec<u32>), String> {
    let mut reader = BufReader::new(stdout);
    let mut pids = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| format!("reading banner: {e}"))?;
        if n == 0 {
            return Err("child closed stdout before its listen banner".into());
        }
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return Ok((addr.to_string(), pids));
        }
        let mut words = line.split_whitespace();
        if words.next() == Some("replica") {
            if let Some(pid) = words.nth(2).and_then(|p| p.parse().ok()) {
                pids.push(pid);
            }
        }
    }
}

/// Spawns `aeetes <subcommand> … --listen 127.0.0.1:0` and waits for the
/// banner. Returns the process and the address it listens on.
pub fn spawn_listener(aeetes: &Path, args: &[&str], log: &Path) -> Result<(ChildProc, String), String> {
    let mut child = spawn(aeetes, args, Stdio::null(), log)?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut proc = ChildProc { child, grandchildren: Vec::new() };
    // The banner read blocks; a child that dies first closes the pipe, one
    // that hangs is bounded by the driver's per-run timeout.
    let (addr, pids) = read_banner(stdout)?;
    proc.grandchildren = pids;
    Ok((proc, addr))
}

/// One NDJSON connection: a write half, a buffered read half.
pub struct Client<W: Write, R: Read> {
    writer: W,
    reader: BufReader<R>,
}

/// A client over loopback TCP.
pub type TcpClient = Client<TcpStream, TcpStream>;
/// A client over a child's stdin/stdout pipes.
pub type PipeClient = Client<ChildStdin, ChildStdout>;

impl TcpClient {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream.set_read_timeout(Some(CHILD_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer: stream, reader })
    }
}

impl<W: Write, R: Read> Client<W, R> {
    /// Sends one request (`line` ends in `\n`) in a single write and reads
    /// the reply line into `reply` (cleared first, newline stripped).
    pub fn round_trip(&mut self, line: &[u8], reply: &mut Vec<u8>) -> Result<(), String> {
        debug_assert_eq!(line.last(), Some(&b'\n'));
        self.writer.write_all(line).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        reply.clear();
        let n = self.reader.read_until(b'\n', reply).map_err(|e| format!("receive: {e}"))?;
        if n == 0 || reply.pop() != Some(b'\n') {
            return Err("connection closed mid-reply".into());
        }
        Ok(())
    }

    /// [`Client::round_trip`] for control requests, parsing the reply.
    pub fn control(&mut self, request: &serde_json::Value) -> Result<serde_json::Value, String> {
        let mut line = request.to_string().into_bytes();
        line.push(b'\n');
        let mut reply = Vec::new();
        self.round_trip(&line, &mut reply)?;
        let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| format!("reply is not JSON ({e}): {text}"))
    }
}

/// A spawned `aeetes serve` in stdin/stdout mode.
pub fn spawn_stdio(aeetes: &Path, args: &[&str], log: &Path) -> Result<(ChildProc, PipeClient), String> {
    let mut child = spawn(aeetes, args, Stdio::piped(), log)?;
    let writer = child.stdin.take().expect("piped stdin");
    let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    Ok((ChildProc { child, grandchildren: Vec::new() }, Client { writer, reader }))
}
