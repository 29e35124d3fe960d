//! Runs one program to exit and reports the resources it used.
//!
//! ```text
//! perfbench-spawn REPORT PROGRAM [ARGS...]
//! ```
//!
//! Standard streams are inherited. On exit, `REPORT` receives one line:
//! `<user s> <sys s> <peak RSS KiB> <exit code>`, from `wait4(2)`.
//!
//! The benchmark driver starts programs through this instead of waiting on
//! them itself: Linux folds the memory high-water mark of the address space
//! a child was started from into the child's `ru_maxrss`, and a Python
//! driver's resident set would then dominate the program's. This spawner's
//! own resident set is about a megabyte.

use std::process::{Command, ExitCode};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn seconds(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

fn run() -> Result<u8, String> {
    let mut args = std::env::args().skip(1);
    let report = args
        .next()
        .ok_or("usage: perfbench-spawn REPORT PROGRAM [ARGS...]")?;
    let program = args
        .next()
        .ok_or("usage: perfbench-spawn REPORT PROGRAM [ARGS...]")?;
    let child = Command::new(&program)
        .args(args)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects on 64-bit Linux; `pid` is our own unreaped child
    // (the `Child` handle is never waited on, so nothing else reaps it).
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if got != pid {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    // WIFEXITED / WEXITSTATUS; a signal death reports 128 + signo.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let line = format!(
        "{} {} {} {code}\n",
        seconds(&usage.ru_utime),
        seconds(&usage.ru_stime),
        usage.longs[0]
    );
    std::fs::write(&report, line).map_err(|e| format!("{report}: {e}"))?;
    Ok(u8::try_from(code).unwrap_or(255))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perfbench-spawn: {e}");
            ExitCode::from(255)
        }
    }
}
