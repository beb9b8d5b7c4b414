//! Offline trace assembly CLI.
//!
//! ```sh
//! cargo run -p bench --bin traceview -- <dump-file-or-dir>... [--out trace.json]
//! ```
//!
//! Reads span dumps written by `--obs-dump` (the `.spans.json` sidecar) or
//! `netdemo --trace-dir`, merges them into cross-process traces (aligning
//! each process's clock by its recorded epoch + handshake skew), prints the
//! commit critical-path table, and — with `--out` — writes Chrome
//! trace-event JSON loadable in `chrome://tracing` or <https://ui.perfetto.dev>.

use obs::traceview::{
    assemble, chrome_trace_json, commit_critical_path, mean_critical_path, parse_dump,
    render_critical_path, Trace,
};
use std::io::{self, Write};

fn main() {
    let mut out: Option<String> = None;
    let mut inputs: Vec<std::path::PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out = Some(args.next().unwrap_or_else(|| usage("--out needs a path")));
        } else if arg == "--help" || arg == "-h" {
            usage("");
        } else {
            inputs.push(arg.into());
        }
    }
    if inputs.is_empty() {
        usage("no dump files given");
    }

    // Directories expand to every regular file inside (what `netdemo
    // --trace-dir` produces); unparsable files are reported and skipped.
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let mut entries: Vec<_> = match std::fs::read_dir(&input) {
                Ok(rd) => rd
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.is_file())
                    .collect(),
                Err(e) => fail(&format!("cannot read {}: {e}", input.display())),
            };
            entries.sort();
            files.extend(entries);
        } else {
            files.push(input);
        }
    }

    let mut dumps = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
        };
        match parse_dump(&text) {
            Ok(dump) => {
                eprintln!(
                    "{}: {} span(s) from process `{}`",
                    path.display(),
                    dump.spans.len(),
                    dump.process
                );
                dumps.push(dump);
            }
            Err(e) => eprintln!("{}: skipped ({e})", path.display()),
        }
    }
    if dumps.is_empty() {
        fail("no parsable dumps");
    }

    let traces = assemble(&dumps);
    let mut stdout = io::stdout().lock();
    let mut printed = print_report(&mut stdout, &traces, dumps.len());
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, chrome_trace_json(&traces)) {
            fail(&format!("cannot write {out}: {e}"));
        }
        printed = printed.and_then(|()| {
            writeln!(
                stdout,
                "Chrome trace written to {out} (load in chrome://tracing)"
            )
        });
    }
    std::process::exit(exit_code(printed));
}

/// Prints how many traces were assembled and the mean commit critical
/// path.
fn print_report(out: &mut impl Write, traces: &[Trace], dumps: usize) -> io::Result<()> {
    writeln!(
        out,
        "assembled {} trace(s) from {dumps} process dump(s)",
        traces.len()
    )?;
    let paths: Vec<_> = traces.iter().filter_map(commit_critical_path).collect();
    match mean_critical_path(&paths) {
        Some(mean) => {
            writeln!(
                out,
                "\ncommit critical path (mean over {} commit trace(s)):\n",
                paths.len()
            )?;
            writeln!(out, "{}", render_critical_path(&mean))
        }
        None => writeln!(
            out,
            "no commit traces found (nothing rooted at omq.call_sync/commit_request)"
        ),
    }
}

/// The exit status after printing: 0 when everything was printed, and
/// also when the reader closed the pipe early (`traceview dump | head`),
/// which is not a failure of this program; 1 on any other write error.
fn exit_code(printed: io::Result<()>) -> i32 {
    match printed {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: cannot print the report: {e}");
            1
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: traceview <dump-file-or-dir>... [--out trace.json]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard output whose reader went away after `room` bytes.
    struct ClosedPipe {
        room: usize,
        kind: io::ErrorKind,
    }

    impl Write for ClosedPipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::from(self.kind));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_the_report_quietly() {
        for room in [0, 10] {
            let mut pipe = ClosedPipe {
                room,
                kind: io::ErrorKind::BrokenPipe,
            };
            let printed = print_report(&mut pipe, &[], 1);
            assert_eq!(
                printed.as_ref().map_err(io::Error::kind),
                Err(io::ErrorKind::BrokenPipe)
            );
            assert_eq!(exit_code(printed), 0);
        }
        let mut full = ClosedPipe {
            room: 0,
            kind: io::ErrorKind::StorageFull,
        };
        assert_eq!(exit_code(print_report(&mut full, &[], 1)), 1);
        let mut open = ClosedPipe {
            room: usize::MAX,
            kind: io::ErrorKind::BrokenPipe,
        };
        assert_eq!(exit_code(print_report(&mut open, &[], 1)), 0);
    }
}
