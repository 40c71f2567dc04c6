//! Process CPU time and memory, read from `/proc/self` (Linux).

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, including threads
/// that have already exited.
pub fn cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // the command name may hold spaces; fields resume after its ')'
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after ')' field 0 is the state (stat field 3): utime is field 14,
    // stime field 15
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| format!("missing stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`…) in MiB.
pub fn status_mib(key: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {key} in /proc/self/status"))
}
