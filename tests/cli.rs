//! End-to-end tests of the `dgs` command-line tool: each test runs the
//! built binary on small stream files in its own temporary directory and
//! checks the exit status and output.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dgs-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// Writes `contents` to `file` inside the directory and returns its path.
    fn file(&self, file: &str, contents: &str) -> PathBuf {
        let path = self.0.join(file);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dgs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgs"))
        .args(args)
        .output()
        .unwrap()
}

fn arg(path: &Path) -> &str {
    path.to_str().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn connectivity_counts_components() {
    let dir = TempDir::new("count");
    let input = dir.file("stream.txt", "n 4 2\n+ 0 1\n+ 2 3\n");
    let out = dgs(&["connectivity", "--input", arg(&input)]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("components (whp): 2"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn resumed_checkpoint_rejects_an_out_of_range_vertex() {
    let dir = TempDir::new("resume");
    let input = dir.file("stream.txt", "n 4 2\n+ 0 1\n+ 2 3\n");
    let ckpt = dir.0.join("ckpt.bin");
    let out = dgs(&["connectivity", "--input", arg(&input), "--save", arg(&ckpt)]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));

    // The saved sketch covers 4 vertices; the new stream touches vertex 6.
    let more = dir.file("more.txt", "n 8 2\n+ 6 7\n");
    let out = dgs(&["connectivity", "--load", arg(&ckpt), "--input", arg(&more)]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines().any(|l| l.starts_with("error:")
            && l.contains("vertex 6 out of range for a 4-vertex edge space")),
        "stderr: {err}"
    );
}

#[test]
fn every_subcommand_reports_a_bad_edge_as_an_error() {
    let dir = TempDir::new("bad-edge");
    let input = dir.file("stream.txt", "n 4 2\n+ 0 1\n+ 0 9\n");
    for cmd in [
        "connectivity",
        "bipartite",
        "edge-conn",
        "vertex-conn",
        "reconstruct",
        "sparsify",
    ] {
        let out = dgs(&[cmd, "--input", arg(&input)]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.lines()
                .any(|l| l.starts_with("error:") && l.contains("vertex 9 out of range")),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn bad_flags_are_errors_not_panics() {
    let dir = TempDir::new("bad-flag");
    let input = dir.file("stream.txt", "n 4 2\n+ 0 1\n+ 1 2\n");
    for flags in [
        &["edge-conn", "--k", "0"][..],
        &["reconstruct", "--k", "0"],
        &["sparsify", "--levels", "0"],
        &["vertex-conn", "--query", "0,99"],
    ] {
        let out = dgs(&[flags, &["--input", arg(&input)]].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(
            err.lines().any(|l| l.starts_with("error:")),
            "{flags:?}: {err}"
        );
    }
}

#[test]
fn gen_rejects_flags_its_generators_cannot_take() {
    for (flags, flag) in [
        (
            &["--kind", "harary", "--n", "16", "--kappa", "20"][..],
            "--kappa",
        ),
        (&["--kind", "harary", "--kappa", "0"], "--kappa"),
        (&["--kind", "gnp", "--p", "2.0"], "--p"),
        (&["--kind", "gnp", "--p", "-0.5"], "--p"),
        (&["--kind", "hyper", "--n", "3", "--rank", "5"], "--rank"),
        (&["--kind", "hyper", "--rank", "1"], "--rank"),
        (
            &["--kind", "hyper", "--n", "4", "--rank", "3", "--m", "10"],
            "--m",
        ),
    ] {
        let out = dgs(&[&["gen"], flags].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(
            err.lines()
                .any(|l| l.starts_with("error:") && l.contains(flag)),
            "{flags:?}: {err}"
        );
    }
    // The boundary values still generate.
    for flags in [
        &["--kind", "harary", "--n", "16", "--kappa", "15"][..],
        &["--kind", "hyper", "--n", "4", "--rank", "3", "--m", "4"],
    ] {
        let out = dgs(&[&["gen"], flags].concat());
        assert_eq!(out.status.code(), Some(0), "{flags:?}: {}", stderr(&out));
    }
}
