//! The `depminer` binary: see [`depminer::cli`] for the command reference.

use std::io::{BufWriter, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One block-buffered stdout: a line-buffered lock costs one write(2)
    // per FD line. `process::exit` runs no destructors, so the buffer is
    // flushed by hand before every exit, and before any `error:` line so
    // that stdout text still precedes it.
    let mut out = BufWriter::new(std::io::stdout().lock());
    let result = depminer::cli::run(&args, &mut out);
    let err = match (result, out.flush()) {
        (_, Err(e)) => depminer::cli::CliError {
            message: format!("write failed: {e}"),
            code: 1,
        },
        (Err(e), Ok(())) => e,
        (Ok(()), Ok(())) => return,
    };
    eprintln!("error: {err}");
    std::process::exit(err.code);
}
