//! The `repro` command line end to end: `repro all --quick --json`
//! writes the same 30 files, byte for byte, whatever the executor's
//! worker count, each stamped with its schema version and producer;
//! and malformed command lines exit 1 before running anything.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str], workers: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    match workers {
        Some(n) => cmd.env("PIM_EXEC_WORKERS", n),
        None => cmd.env_remove("PIM_EXEC_WORKERS"),
    };
    cmd.output().expect("spawn repro")
}

/// Runs `repro all --quick --json` into a fresh directory and returns
/// its files by name.
fn quick_all(leg: &str, workers: Option<&str>) -> BTreeMap<String, String> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-quick-{leg}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(
        &["all", "--quick", "--json", dir.to_str().unwrap()],
        workers,
    );
    assert!(
        out.status.success(),
        "repro all --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    read_tree(&dir)
}

fn read_tree(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            (name, std::fs::read_to_string(&path).expect("read output"))
        })
        .collect()
}

#[test]
fn quick_all_is_worker_count_invariant_and_schema_stamped() {
    let single = quick_all("w1", Some("1"));
    let default = quick_all("default", None);
    assert_eq!(
        single.keys().collect::<Vec<_>>(),
        default.keys().collect::<Vec<_>>(),
        "the two worker legs wrote different file sets"
    );
    for (name, contents) in &single {
        assert!(
            *contents == default[name],
            "{name} differs between PIM_EXEC_WORKERS=1 and the default"
        );
    }
    assert_eq!(single.len(), 30, "files: {:?}", single.keys());

    for (name, contents) in &single {
        let v = serde_json::from_str(contents).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            v.get("schema_version").and_then(|s| s.as_u64()),
            Some(1),
            "{name}"
        );
        if name.ends_with(".trace.json") {
            assert_eq!(
                v.get("kind").and_then(|k| k.as_str()),
                Some("alloc-trace"),
                "{name}"
            );
        } else {
            let stem = name.strip_suffix(".json").expect("only JSON is written");
            assert_eq!(v.get("id").and_then(|id| id.as_str()), Some(stem), "{name}");
        }
    }
}

#[test]
fn malformed_command_lines_exit_one() {
    for args in [
        &["fig15", "--quik"][..],
        &["fig15", "fig16"],
        &["list", "extra"],
        &["fig15", "--quick", "--json"],
        &["fig99", "--quick"],
    ] {
        let out = repro(args, None);
        assert_eq!(out.status.code(), Some(1), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "repro {args:?}: {stderr}");
    }
}
