//! `rtk` — command-line interface for reverse top-k RWR search.
//!
//! ```text
//! rtk generate <dataset> --out graph.rtkg       synthesize a graph
//! rtk stats <graph>                             node/edge/degree summary
//! rtk index build <graph> --out idx.rtki        build the graph + index snapshot
//! rtk index info <idx.rtki>                     index statistics
//! rtk query <idx.rtki> --node Q --k K           reverse top-k search
//! rtk topk <graph> --node U --k K [--early]     forward top-k search
//! rtk pmpn <graph> --node Q [--top N]           proximities *to* a node
//! rtk convert <in> <out>                        tsv <-> binary graph formats
//! ```
//!
//! Graph files ending in `.tsv`/`.txt`/`.edges` are read/written as TSV edge
//! lists; anything else uses the versioned binary format.

/// `println!` for command output, through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Through the structured log layer (a JSON line on stderr, or
            // the --log-file sink if a serving command installed one), so
            // CLI failures land in the same stream as server events.
            rtk_obs::log_event(rtk_obs::Level::Error, "rtk", &e, &[]);
            ExitCode::FAILURE
        }
    }
}

/// Writes command output to stdout. A reader that closed the pipe early
/// (`rtk stats g.rtkg | head -1`) wants no more of it: the command ends
/// there, quietly and with status 0, instead of panicking on the `EPIPE`.
fn write_stdout(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}
