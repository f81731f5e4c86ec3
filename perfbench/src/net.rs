//! `cdr-serve` processes and plain line connections to them.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One spawned `cdr-serve`, killed and reaped on drop if still running.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn to the `listening` line.
    pub boot: Duration,
}

impl ServerProc {
    /// Spawns `cdr-serve <args> --addr 127.0.0.1:0`, logging its stderr to
    /// `log`, and waits for its `listening on <addr>` line.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> io::Result<ServerProc> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "cdr-serve exited before listening; see {}",
                    log.display()
                )));
            }
            if let Some(addr) = line.trim().strip_prefix("cdr-serve listening on ") {
                return Ok(ServerProc {
                    addr: addr.to_string(),
                    boot: started.elapsed(),
                    child,
                    _stdout: stdout,
                });
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Sends `SHUTDOWN` and waits for the process to exit (killing it after
    /// a grace period).  Returns whether it exited cleanly.
    pub fn shutdown(mut self) -> bool {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.request("SHUTDOWN"))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return asked && status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A blocking line connection with byte counters.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes_out += bytes.len() as u64;
        self.stream.write_all(bytes)
    }

    pub fn read_line(&mut self) -> io::Result<String> {
        read_reply(&mut self.reader, &mut self.bytes_in)
    }

    /// One line out, one line back.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.read_line()
    }

    /// One `BULK` frame out, one reply line per op back.
    pub fn bulk(&mut self, frame: &[u8], ops: usize) -> io::Result<Vec<String>> {
        let mut bytes = format!("BULK {}\n", frame.len()).into_bytes();
        bytes.extend_from_slice(frame);
        self.send(&bytes)?;
        let mut replies = Vec::with_capacity(ops);
        for i in 0..ops {
            let line = self.read_line()?;
            let rejected = i == 0 && line.starts_with("ERR");
            replies.push(line);
            if rejected {
                break;
            }
        }
        Ok(replies)
    }
}

/// Reads one reply line (newline stripped); EOF is an error.
pub fn read_reply(reader: &mut impl BufRead, bytes_in: &mut u64) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    *bytes_in += n as u64;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Where a run keeps its server logs, command logs and spans.
pub fn work_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A fresh, empty directory under the work directory.
pub fn fresh_dir(name: &str) -> io::Result<PathBuf> {
    let dir = work_dir()?.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
