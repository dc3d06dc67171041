//! Helpers for integration tests that need a process of their own: exact
//! allocation counts, or the process's thread count.

use std::process::Command;

/// Set in the environment of the child process [`isolated`] starts.
const CHILD_ENV: &str = "SAM_ISOLATED_TEST_CHILD";

/// True in the child process, where the caller runs its body. Otherwise
/// runs the test `name` in a child process of this binary, checks that it
/// ran and passed, and returns false.
///
/// The child runs that one test on one test thread. In a shared process,
/// other test threads would allocate inside a count, start or end threads
/// inside a thread count, or hold the CPU engine's worker pool: one
/// finishing its test, or one setting up its output capture before its
/// test starts.
pub fn isolated(name: &str) -> bool {
    if std::env::var_os(CHILD_ENV).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("path of the test binary");
    let out = Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("start the isolated test run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed"),
        "isolated run of {name} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// The process's thread count, the `Threads:` line of `/proc/self/status`.
pub fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line in /proc/self/status")
}
