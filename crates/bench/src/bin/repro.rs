//! `repro` — regenerate the PIM-malloc paper's tables and figures.
//!
//! ```text
//! repro all [FLAGS]      run every experiment
//! repro <id> [FLAGS]     run one experiment (fig15, trace, ...)
//! repro list             list experiment ids with descriptions
//!
//! FLAGS:
//!   --quick       trim sweep sizes for a fast smoke run
//!   --seed N      override the stochastic experiments' workload seeds
//!                 (LLM trace, graph generator, synthetic traces);
//!                 defaults to each experiment's fixed seed
//!   --csv DIR     write each experiment's rows to DIR/<id>.csv
//!   --json DIR    write DIR/<id>.json (machine-readable, with
//!                 schema_version and the producing experiment id);
//!                 for `trace`, also writes the generated traces as
//!                 DIR/trace-<family>.trace.json
//! ```

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use parking_lot::Mutex;
use pim_bench::figures;

/// Parsed command line: the one experiment id (or `all`/`list`;
/// `None` means `all`) and the flags.
#[derive(Default)]
struct Args {
    target: Option<String>,
    quick: bool,
    seed: Option<u64>,
    csv_dir: Option<String>,
    json_dir: Option<String>,
}

/// Rejects unknown `--flag`s and a second positional id, so a typo
/// never silently runs the wrong sweep.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut operand = |name: &str| match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(format!("{arg} requires a {name} operand")),
        };
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--csv" => parsed.csv_dir = Some(operand("DIR")?),
            "--json" => parsed.json_dir = Some(operand("DIR")?),
            "--seed" => {
                let s = operand("N")?;
                parsed.seed = Some(
                    s.parse::<u64>()
                        .map_err(|_| format!("--seed needs a u64, got `{s}`"))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag `{flag}`; flags are --quick, --seed N, --csv DIR, --json DIR"
                ))
            }
            _ => {
                if let Some(first) = &parsed.target {
                    return Err(format!(
                        "unexpected argument `{arg}` after `{first}`; repro takes one experiment id"
                    ));
                }
                parsed.target = Some(arg);
            }
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Args {
        target,
        quick,
        seed,
        csv_dir,
        json_dir,
    } = match parse_args(env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let write_outputs = |experiments: &[pim_bench::Experiment]| {
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            for e in experiments {
                let path = std::path::Path::new(dir).join(format!("{}.csv", e.id));
                std::fs::write(&path, e.to_csv()).expect("write csv");
            }
        }
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            for e in experiments {
                let path = std::path::Path::new(dir).join(format!("{}.json", e.id));
                std::fs::write(&path, e.to_json()).expect("write json");
            }
        }
        // The trace experiment ships its generated traces alongside
        // the report, so a replay elsewhere starts from the same files.
        if let Some(dir) = &json_dir {
            if experiments.iter().any(|e| e.id == "trace") {
                for (file, contents) in figures::trace_artifact_files(
                    quick,
                    seed.unwrap_or(figures::TRACE_DEFAULT_SEED),
                ) {
                    let path = std::path::Path::new(dir).join(file);
                    std::fs::write(&path, contents).expect("write trace artifact");
                }
            }
        }
    };

    match target.as_deref().unwrap_or("all") {
        "list" => {
            let width = figures::all_ids().map(str::len).max().unwrap_or(0);
            for entry in &figures::CATALOG {
                println!("{:width$}  {}", entry.id, entry.description);
            }
            ExitCode::SUCCESS
        }
        "all" => {
            println!(
                "# PIM-malloc reproduction — all experiments ({} mode)\n",
                if quick { "quick" } else { "full" }
            );
            // Experiments are independent; run them on a scoped thread
            // pool and print in paper order as they complete.
            let results: Mutex<BTreeMap<usize, Vec<pim_bench::Experiment>>> =
                Mutex::new(BTreeMap::new());
            std::thread::scope(|scope| {
                for (idx, id) in figures::all_ids().enumerate() {
                    let results = &results;
                    scope.spawn(move || {
                        let out = figures::run(id, quick, seed);
                        results.lock().insert(idx, out);
                    });
                }
            });
            for (_, experiments) in results.into_inner() {
                write_outputs(&experiments);
                for e in experiments {
                    println!("{e}");
                }
            }
            ExitCode::SUCCESS
        }
        id if figures::is_known(id) => {
            let experiments = figures::run(id, quick, seed);
            write_outputs(&experiments);
            for e in experiments {
                println!("{e}");
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown experiment `{other}`; try `repro list`");
            ExitCode::FAILURE
        }
    }
}
