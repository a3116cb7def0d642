//! `tempora-serve` — serve a durable database directory to concurrent
//! network clients.
//!
//! ```text
//! $ tempora-serve ./plantdb --addr 127.0.0.1:7777 --fsync group:8
//! opened ./plantdb (recovered 2 relation(s), 120 frame(s) replayed)
//! serving on 127.0.0.1:7777 (128 connection(s), 64 in flight, 30000 ms timeout)
//! ```
//!
//! Clients speak the length-prefixed frame protocol of
//! [`tempora::serve`] — the REPL's `.connect <addr>` is one such client.
//! `SELECT`s are answered from a shared immutable snapshot pinned at the
//! last issued transaction stamp, so reads never block writes; DML goes through
//! the write-ahead log. The process reads stdin: `quit` (or EOF) drains
//! in-flight requests, checkpoints, and exits.
//!
//! Flags: `--addr <host:port>` (default `127.0.0.1:7777`),
//! `--fsync always|never|group:<n>`, `--max-conns <n>`,
//! `--inflight <n>`, `--timeout-ms <n>`.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use tempora::serve::{ServeConfig, Server};
use tempora::time::SystemClock;
use tempora::wal::{DirStorage, DurabilityConfig, DurableDatabase, FsyncPolicy};

struct Args {
    dir: String,
    addr: String,
    policy: FsyncPolicy,
    config: ServeConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .ok_or("usage: tempora-serve <dir> [--addr host:port] [--fsync always|never|group:<n>] [--max-conns n] [--inflight n] [--timeout-ms n]")?;
    let mut parsed = Args {
        dir,
        addr: "127.0.0.1:7777".to_string(),
        policy: FsyncPolicy::Always,
        config: ServeConfig::default(),
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or(format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?,
            // An invalid policy (e.g. `group:0`) is a startup error, not a
            // silent coercion.
            "--fsync" => {
                parsed.policy = FsyncPolicy::parse(&value("--fsync")?).map_err(|e| e.to_string())?;
            }
            "--max-conns" => {
                parsed.config.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--inflight" => {
                parsed.config.max_inflight = value("--inflight")?
                    .parse()
                    .map_err(|e| format!("--inflight: {e}"))?;
            }
            "--timeout-ms" => {
                parsed.config.request_timeout = Duration::from_millis(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--timeout-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let storage = Arc::new(DirStorage::new(&args.dir));
    let clock = Arc::new(SystemClock::new());
    let (db, recovery) =
        match DurableDatabase::open(storage, clock, DurabilityConfig::with_fsync(args.policy)) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("error: cannot open {}: {e}", args.dir);
                std::process::exit(1);
            }
        };
    println!("opened {} ({recovery})", args.dir);
    let config = args.config.clone();
    let server = match Server::start(Arc::new(db), &args.addr, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "serving on {} ({} connection(s), {} in flight, {} ms timeout)",
        server.local_addr(),
        config.max_connections,
        config.max_inflight,
        config.request_timeout.as_millis()
    );
    println!("type `quit` (or close stdin) to drain and exit");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if matches!(line.trim(), "quit" | "exit" | ".quit") => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    println!("draining…");
    match server.shutdown() {
        Ok(epoch) => println!("checkpointed at epoch {epoch}; bye"),
        Err(e) => {
            eprintln!("error: shutdown checkpoint failed: {e}");
            std::process::exit(1);
        }
    }
}
