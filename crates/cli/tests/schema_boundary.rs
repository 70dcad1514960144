//! `wfbn build` at the 64-bit key boundary: a CSV whose inferred state
//! space needs 2^64 keys is refused with the schema's own reason and exit
//! code 2, while one binary column fewer builds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Writes four rows of `cols` binary states (rows alternate all-0 and
/// all-1, so every column infers arity 2) and returns the file's path.
fn binary_csv(dir: &Path, cols: usize) -> PathBuf {
    let mut text = String::new();
    for state in ["0", "1", "0", "1"] {
        text.push_str(&vec![state; cols].join(","));
        text.push('\n');
    }
    let path = dir.join(format!("w{cols}.csv"));
    std::fs::write(&path, text).unwrap();
    path
}

fn wfbn_build(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfbn"))
        .args(["build", "--in", path.to_str().unwrap(), "--threads", "2"])
        .output()
        .expect("run the wfbn binary")
}

#[test]
fn sixty_four_binary_columns_exit_2_with_the_schema_reason() {
    let dir = std::env::temp_dir().join(format!("wfbn_cli_schema_boundary_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = wfbn_build(&binary_csv(&dir, 64));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("state-space size exceeds the 64-bit key range"),
        "{stderr}"
    );
    assert!(!stderr.contains("i/o error"), "{stderr}");

    let out = wfbn_build(&binary_csv(&dir, 63));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("4 samples × 63 variables"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}
