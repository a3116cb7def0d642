//! What a result records about the machine it ran on.

use std::path::Path;

/// Host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process before it pinned itself.
    pub cores: usize,
    /// The CPU the run is pinned to, if pinning succeeded.
    pub pinned_cpu: Option<usize>,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Filesystem type and mount point holding the work directory.
    pub work_fs: String,
}

impl Host {
    /// Reads the host facts, then pins the process to one CPU (see
    /// [`pin_to_one_cpu`]); `work_dir` is where WAL directories live.
    #[must_use]
    pub fn probe_and_pin(work_dir: &Path) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Host {
            cores,
            pinned_cpu: pin_to_one_cpu(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERF_RUSTC_VERSION").to_string(),
            work_fs: filesystem_of(work_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The facts as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"pinned_cpu\":{},\"cpu_model\":{},\"rustc\":{},\"work_fs\":{}}}",
            self.cores,
            self.pinned_cpu
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.work_fs)
        )
    }
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and so every thread it starts later, to the
/// lowest CPU it may run on. Returns that CPU, or `None` when the affinity
/// calls fail.
///
/// On a virtual machine with a few virtual CPUs, a request handed from a
/// client thread to a server thread on another virtual CPU waits for the
/// host to wake that CPU, and that wait swings with the host's load from
/// run to run. On one CPU the hand-over is a local context switch, which
/// keeps served latency steady; it also takes away CPU parallelism, so the
/// benchmark measures no parallel speed-up.
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable `cpu_set_t`-sized buffer and
    // the size passed is its size; pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t`-sized buffer the kernel only
    // reads, and the size passed is its size.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set == 0).then_some(cpu)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The mount (type and mount point) with the longest prefix of `dir`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {point}")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
