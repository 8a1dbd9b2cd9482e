//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time, checks its outputs, prints a
//! metric table and, as the last line, one JSON result object. Exits
//! non-zero when an output is wrong or a step fails.
//!
//! `perfbench --describe` prints the workloads and metrics with their
//! units and meaning; `perfbench --fingerprint --workload <name> --seed <n>`
//! prints the output fingerprint one episode produces.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::catalog::{self, Tier};
use perfbench::report;
use perfbench::run::{self, RunConfig, Window, Workload};

/// Directory the traced run writes its spans to, relative to the
/// working directory.
const SPANS_DIR: &str = "perfbench/out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --describe\n       \
         perfbench --fingerprint --workload <name> --seed <n>",
        names.join("|")
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    describe: bool,
    fingerprint: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        describe: false,
        fingerprint: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                };
            }
            "--describe" => args.describe = true,
            "--fingerprint" => args.fingerprint = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", catalog::describe_json());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required\n{}", usage());
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: false,
    };
    if args.fingerprint {
        let window = Window::run(&cfg, 0.0, Some(1), None);
        return match (window.episodes.first(), window.errors.first()) {
            (Some(e), _) => {
                println!(
                    "(\"{}\", {}, 0x{:016x}),",
                    workload.name(),
                    cfg.seed,
                    e.fingerprint()
                );
                ExitCode::SUCCESS
            }
            (None, err) => {
                eprintln!(
                    "perfbench: episode failed: {}",
                    err.map_or("", String::as_str)
                );
                ExitCode::FAILURE
            }
        };
    }

    let out = run::run(&cfg);
    let tier = if cfg.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    print!("{}", report::table(workload.name(), cfg.seed, tier, &out));
    let mut ok = out.correct();
    if let Some(spans) = &out.spans {
        let path = PathBuf::from(SPANS_DIR).join(format!(
            "{}-seed{}.spans.jsonl",
            workload.name(),
            cfg.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                ok = false;
            }
        }
    }
    println!("{}", report::json_line(tier, &out));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
