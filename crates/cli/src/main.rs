//! The `sara` binary: a thin shell over [`sara_cli::run`], which owns all
//! argument parsing, output-sink selection and driver logic.

fn main() {
    std::process::exit(sara_cli::run(std::env::args().skip(1)));
}
