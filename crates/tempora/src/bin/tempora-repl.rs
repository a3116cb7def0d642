//! `tempora-repl` — an interactive (and pipeable) shell over the whole
//! stack: DDL, DML, and TQL, one statement per line.
//!
//! ```text
//! $ cargo run -p tempora --bin tempora-repl
//! tempora> CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) AS EVENT WITH RETROACTIVE
//! created relation plant
//! tempora> INSERT INTO plant OBJECT 7 VALID 1992-02-12T08:58:00 SET temperature = 19.5
//! inserted e0
//! tempora> SELECT FROM plant AT 1992-02-12T08:58:00
//! point-probe: examined 1 returned 1
//!   e0[o7] vt=1992-02-12T08:58:00 tt=[…]
//! ```
//!
//! Sessions start **volatile** (in-memory). `.open <dir>` (or
//! `tempora-repl <dir>`) switches to a **durable** session: every
//! committed statement is write-ahead logged under that directory,
//! `.save` checkpoints and truncates the
//! log, and reopening the directory recovers the database — including after
//! a crash. `.wal` shows the durability status; `.wal retry` leaves
//! read-only degraded mode after a storage failure.
//!
//! Meta-commands: `.relations`, `.report <relation>`, `.lint [relation]`,
//! `.explain SELECT …`, `.shards <relation> <n>`, `.metrics [prom]`,
//! `.trace [n]`, `.taxonomy`, `.dump <file>`, `.restore <file>`,
//! `.open <dir> [always|never|group:<n>]`, `.save`, `.wal [retry]`,
//! `.connect <host:port>` (forward statements to a `tempora-serve`
//! instance), `.disconnect`, `.help`, `.quit`. Statements may span lines
//! by ending a line with `\`.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use tempora::design::dump::{dump, restore_into};
use tempora::design::{report, Database};
use tempora::prelude::*;
use tempora::serve::{Client, ResponseStatus};
use tempora::wal::{DirStorage, DurabilityConfig, DurableDatabase, FsyncPolicy};
use tempora::time::RecoveryClock;

/// The shell's database: plain in-memory, wrapped in the WAL, or a
/// network client speaking to a `tempora-serve` instance.
enum Session {
    Volatile(Database),
    Durable(Box<DurableDatabase>),
    Remote(Client),
}

impl Session {
    fn db(&self) -> Option<&Database> {
        match self {
            Session::Volatile(db) => Some(db),
            Session::Durable(db) => Some(db.db()),
            Session::Remote(_) => None,
        }
    }

    fn execute(&mut self, statement: &str) -> Result<String, String> {
        match self {
            Session::Volatile(db) => db
                .execute(statement)
                .map(|o| o.to_string())
                .map_err(|e| e.to_string()),
            Session::Durable(db) => db
                .execute(statement)
                .map(|o| o.to_string())
                .map_err(|e| e.to_string()),
            Session::Remote(client) => forward(client, statement),
        }
    }
}

/// Sends one statement (or meta-command) to the server, rendering the
/// response the way a local session would: `OK` bodies to stdout-text,
/// everything else to an error string. Queries prepend the snapshot pin so
/// it is visible which transaction tick answered.
fn forward(client: &mut Client, statement: &str) -> Result<String, String> {
    let response = client.request(statement).map_err(|e| {
        format!("connection lost: {e} (use .connect to reconnect, .disconnect for local mode)")
    })?;
    match response.status {
        ResponseStatus::Ok { pin: Some(pin) } => {
            Ok(format!("pinned at tt={pin}\n{}", response.body.trim_end()))
        }
        ResponseStatus::Ok { pin: None } => Ok(response.body.trim_end().to_string()),
        ResponseStatus::Busy => Err(format!("server busy: {} (safe to retry)", response.detail)),
        ResponseStatus::ReadOnly => Err(format!("server read-only: {}", response.detail)),
        ResponseStatus::Error => Err(response.detail),
    }
}

fn open_durable(dir: &str, policy: FsyncPolicy) -> Result<Session, String> {
    let storage = Arc::new(DirStorage::new(dir));
    let clock: Arc<SystemClock> = Arc::new(SystemClock::new());
    match DurableDatabase::open(storage, clock, DurabilityConfig::with_fsync(policy)) {
        Ok((db, recovery)) => {
            println!("opened {dir} ({recovery})");
            Ok(Session::Durable(Box::new(db)))
        }
        Err(e) => Err(format!("cannot open {dir}: {e}")),
    }
}

fn main() {
    let mut session = match std::env::args().nth(1) {
        Some(dir) => match open_durable(&dir, FsyncPolicy::Always) {
            Ok(session) => session,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        None => Session::Volatile(Database::new(Arc::new(SystemClock::new()))),
    };
    let stdin = io::stdin();
    let interactive = atty_guess();
    let mut buffer = String::new();

    if interactive {
        println!("tempora — temporal specialization shell (.help for help)");
    }
    loop {
        if interactive {
            print!("tempora> ");
            let _ = io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim_end();
        if let Some(cont) = line.strip_suffix('\\') {
            buffer.push_str(cont);
            buffer.push(' ');
            continue;
        }
        buffer.push_str(line);
        let statement = buffer.trim().to_string();
        buffer.clear();
        if statement.is_empty() || statement.starts_with("--") {
            continue;
        }
        if let Some(meta) = statement.strip_prefix('.') {
            if !handle_meta(meta, &mut session) {
                break;
            }
            continue;
        }
        match session.execute(&statement) {
            Ok(outcome) => println!("{outcome}"),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

/// Handles a meta-command; returns false to quit.
fn handle_meta(meta: &str, session: &mut Session) -> bool {
    let mut parts = meta.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    match cmd {
        "quit" | "exit" | "q" => return false,
        "connect" => {
            match parts.next() {
                None => eprintln!("usage: .connect <host:port>"),
                Some(addr) => match Client::connect(addr) {
                    Ok(client) => {
                        println!("connected to {addr} (remote session; .disconnect for local)");
                        *session = Session::Remote(client);
                    }
                    Err(e) => eprintln!("error: cannot connect to {addr}: {e}"),
                },
            }
            return true;
        }
        "disconnect" => {
            match session {
                Session::Remote(_) => {
                    *session = Session::Volatile(Database::new(Arc::new(SystemClock::new())));
                    println!("disconnected; fresh volatile session");
                }
                _ => eprintln!("error: not a remote session"),
            }
            return true;
        }
        _ => {}
    }
    if let Session::Remote(client) = session {
        // A remote session forwards the metas the server answers; the
        // rest are design-time commands that need the database in-process.
        match cmd {
            "metrics" | "lint" | "wal" | "ping" => {
                match forward(client, &format!(".{}", meta.trim())) {
                    Ok(outcome) => println!("{outcome}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            "help" => print_help(),
            other => eprintln!(
                "remote session: .{other} runs in-process only \
                 (remote metas: .metrics .lint .wal .ping; or .disconnect)"
            ),
        }
        return true;
    }
    fn db(session: &Session) -> &Database {
        session.db().expect("remote sessions returned above")
    }
    match cmd {
        "relations" => {
            for name in db(session).relation_names() {
                println!("{name}");
            }
        }
        "report" => match parts.next().and_then(|name| db(session).report(name)) {
            Some(text) => println!("{text}"),
            None => eprintln!("usage: .report <relation>"),
        },
        "taxonomy" => println!("{}", report::taxonomy_overview()),
        "lint" => match parts.next() {
            Some(relation) => match db(session).lint(relation) {
                Some(analysis) => println!("{analysis}"),
                None => eprintln!("unknown relation {relation:?}"),
            },
            None => {
                let analyses = db(session).lint_all();
                if analyses.is_empty() {
                    println!("no relations to lint");
                }
                for analysis in analyses {
                    println!("{analysis}");
                }
            }
        },
        "explain" => {
            // The remainder of the line is a TQL SELECT statement.
            let tql = parts.collect::<Vec<_>>().join(" ");
            if tql.is_empty() {
                eprintln!("usage: .explain SELECT FROM <relation> …");
            } else {
                match db(session).explain(&tql) {
                    Ok(annotated) => println!("{annotated}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        "shards" => {
            let relation = parts.next();
            let shards = parts.next().and_then(|n| n.parse::<usize>().ok());
            match (relation, shards) {
                (Some(relation), Some(shards)) => {
                    match db(session).set_ingest_shards(relation, shards) {
                        // Shard counts clamp to at least one; report the
                        // effective value.
                        Ok(()) => println!(
                            "{relation}: batched ingest uses {} shard(s)",
                            shards.max(1)
                        ),
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                _ => eprintln!("usage: .shards <relation> <count>"),
            }
        }
        "metrics" => {
            // `.metrics` — human-readable snapshot; `.metrics prom` — the
            // Prometheus text exposition for scraping or diffing.
            let snapshot = db(session).metrics_snapshot();
            match parts.next() {
                Some("prom") => print!("{}", snapshot.to_prometheus()),
                Some(other) => eprintln!("usage: .metrics [prom] (got {other:?})"),
                None => print!("{snapshot}"),
            }
        }
        "trace" => {
            // `.trace [n]` — the n most recent completed spans (default
            // 16), oldest first, indented by nesting depth.
            let n = parts.next().and_then(|n| n.parse::<usize>().ok()).unwrap_or(16);
            let events = tempora::obs::recent_traces(n);
            if events.is_empty() {
                println!("no spans recorded yet");
            }
            for event in events {
                println!("{event}");
            }
        }
        "dump" => match parts.next() {
            None => eprintln!("usage: .dump <file>"),
            Some(path) => {
                let text = dump(db(session));
                match std::fs::write(path, &text) {
                    Ok(()) => println!(
                        "dumped {} relation(s), {} byte(s) to {path}",
                        db(session).relation_names().len(),
                        text.len()
                    ),
                    Err(e) => eprintln!("error: cannot write {path}: {e}"),
                }
            }
        },
        "restore" => match parts.next() {
            None => eprintln!("usage: .restore <file>"),
            Some(path) => {
                if matches!(session, Session::Durable(_)) {
                    eprintln!(
                        "error: .restore replaces a volatile session; this durable session \
                         recovers from its own directory (use .quit, then restore elsewhere)"
                    );
                } else {
                    match std::fs::read_to_string(path) {
                        Err(e) => eprintln!("error: cannot read {path}: {e}"),
                        Ok(text) => {
                            // Replay on a recovery clock so restored stamps
                            // equal the dump's, then continue on system time.
                            let clock =
                                Arc::new(RecoveryClock::new(Arc::new(SystemClock::new())));
                            let db = Database::new(
                                Arc::clone(&clock) as Arc<dyn TransactionClock>
                            );
                            match restore_into(&db, &|tt| clock.set(tt), &text) {
                                Ok(()) => {
                                    clock.go_live();
                                    println!(
                                        "restored {} relation(s) from {path}",
                                        db.relation_names().len()
                                    );
                                    *session = Session::Volatile(db);
                                }
                                Err(e) => eprintln!("error: restore from {path} failed: {e}"),
                            }
                        }
                    }
                }
            }
        },
        "open" => match parts.next() {
            None => eprintln!("usage: .open <dir> [always|never|group:<n>]"),
            Some(dir) => {
                let policy = match parts.next() {
                    None => Ok(FsyncPolicy::Always),
                    Some(spec) => FsyncPolicy::parse(spec),
                };
                match policy {
                    Err(e) => eprintln!("error: {e}"),
                    Ok(policy) => match open_durable(dir, policy) {
                        Ok(durable) => *session = durable,
                        Err(e) => eprintln!("error: {e}"),
                    },
                }
            }
        },
        "save" => match session {
            Session::Volatile(_) => eprintln!(
                "error: volatile session — .open <dir> for durability, or .dump <file> \
                 for a one-off snapshot"
            ),
            Session::Durable(db) => match db.checkpoint() {
                Ok(epoch) => println!("checkpointed; now at epoch {epoch}"),
                Err(e) => eprintln!("error: checkpoint failed: {e}"),
            },
            Session::Remote(_) => unreachable!("remote sessions returned above"),
        },
        "wal" => match session {
            Session::Volatile(_) => {
                println!("wal: none (volatile session; .open <dir> for durability)");
            }
            Session::Durable(db) => match parts.next() {
                None => println!("{}", db.status()),
                Some("retry") => match db.retry() {
                    Ok(()) => println!("recovered; {}", db.status()),
                    Err(e) => eprintln!("error: retry failed: {e}"),
                },
                Some(other) => eprintln!("usage: .wal [retry] (got {other:?})"),
            },
            Session::Remote(_) => unreachable!("remote sessions returned above"),
        },
        "help" => print_help(),
        other => eprintln!("unknown meta-command .{other} (try .help)"),
    }
    true
}

fn print_help() {
    println!(
        "statements:\n  CREATE TEMPORAL RELATION <name> (<attrs>) AS EVENT|INTERVAL [GRANULARITY g] [WITH …]\n  INSERT INTO <r> OBJECT <n> VALID <ts> [TO <ts>] [SET a = v, …]\n  UPDATE <r> ELEMENT <n> VALID <ts> [TO <ts>] [SET …]\n  DELETE FROM <r> ELEMENT <n>\n  SELECT FROM <r> [WHERE a = v [AND …]] [AT <ts> [AS OF <ts>] | DURING <ts> TO <ts> | AS OF <ts> | HISTORY OF <n>]\nmeta: .relations  .report <r>  .lint [r]  .explain SELECT …  .shards <r> <n>  .metrics [prom]  .trace [n]  .taxonomy  .quit\ndurability: .open <dir> [always|never|group:<n>]  .save  .wal [retry]  .dump <file>  .restore <file>\nserving: .connect <host:port>  .disconnect (remote sessions forward statements plus .metrics .lint .wal .ping)"
    );
}

/// Crude interactivity guess without platform deps: honor a NO_PROMPT env
/// var for scripted runs, otherwise prompt.
fn atty_guess() -> bool {
    std::env::var_os("NO_PROMPT").is_none()
}
