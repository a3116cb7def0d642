//! `tempora-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its unit and sample count,
//! writes the result (with the host it ran on) under `perf/out/`, and
//! prints as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any check failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use tempora_perf::host::{self, json_str, Host};
use tempora_perf::report::{self, Def, END_TO_END, PER_LAYER, REPORTED};
use tempora_perf::{durable_commit, remove_dir, serve_probe, Env, Pass};

const WORKLOADS: &[&str] = &["serve_probe", "durable_commit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_pass(args: &Args, work_dir: &std::path::Path, traced: bool) -> (Pass, Env) {
    let env = Env::new(
        args.seed,
        Duration::from_secs(args.seconds),
        work_dir.to_path_buf(),
        traced,
    );
    let pass = match args.workload.as_str() {
        "serve_probe" => serve_probe::run(&env),
        _ => durable_commit::run(&env),
    };
    (pass, env)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tempora-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let work_dir = root.join("work").join(std::process::id().to_string());
    let out_dir = root.join("out");
    if let Err(e) = std::fs::create_dir_all(&work_dir).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("tempora-perf: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let host = Host::probe_and_pin(&work_dir);

    let mut passes = Vec::new();
    let (defs, values): (&[Def], _) = if args.trace {
        let (untraced, _) = run_pass(&args, &work_dir, false);
        let (traced, env) = run_pass(&args, &work_dir, true);
        let tracer = env.tracer.as_ref().expect("the traced pass has a tracer");
        let spans = tracer.spans();
        let trace_file = out_dir.join(format!("{}.trace.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&trace_file) {
            eprintln!("tempora-perf: cannot write {}: {e}", trace_file.display());
        }
        let values = report::per_layer(&traced, &spans, untraced.ops_per_s());
        passes.push(untraced);
        passes.push(traced);
        (PER_LAYER, values)
    } else {
        let (pass, _) = run_pass(&args, &work_dir, false);
        let values = report::end_to_end(&pass, host::peak_rss_mb().unwrap_or(0.0));
        passes.push(pass);
        (END_TO_END, values)
    };
    remove_dir(&work_dir);

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum::<u64>().max(1);
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let correct = failed == 0;

    println!(
        "tempora-perf {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: {} cores (run pinned to cpu {}), {}, {}, work dir on {}",
        host.cores,
        host.pinned_cpu
            .map_or_else(|| "none".to_string(), |c| c.to_string()),
        host.cpu_model,
        host.rustc,
        host.work_fs
    );
    print!("{}", report::table(defs, &values));
    if !args.trace {
        print!("{}", report::table(REPORTED, &values));
    }
    let named = &passes.last().expect("at least one pass ran").named;
    for n in named {
        println!(
            "  {:<32} {:>16.4} {:<6} n={}",
            n.name, n.value, n.unit, n.samples
        );
    }
    println!(
        "  {:<32} {:>16.6} {:<6} n={attempted}",
        "failed_ratio",
        failed as f64 / attempted as f64,
        "ratio"
    );
    for p in &passes {
        for f in &p.failures {
            println!("FAILED: {f}");
        }
    }

    let line = report::json_line(correct, attempted, failed, defs, &values);
    let result_file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let extra: Vec<String> = named
        .iter()
        .filter(|n| n.value.is_finite())
        .map(|n| format!("{}:{}", json_str(&n.name), n.value))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"extra\":{{{}}},\"result\":{line}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        extra.join(",")
    );
    if let Err(e) = std::fs::write(&result_file, record) {
        eprintln!("tempora-perf: cannot write {}: {e}", result_file.display());
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
