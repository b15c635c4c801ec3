//! A reader that closes `rtk`'s stdout before the command writes (`rtk
//! stats g.rtkg | head -1`) ends the command quietly: status 0 and nothing
//! on stderr, never a broken-pipe panic.

use std::path::Path;
use std::process::{Command, Stdio};

const RTK: &str = env!("CARGO_BIN_EXE_rtk");

fn rtk(dir: &Path, args: &[&str]) {
    let status = Command::new(RTK)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "rtk {args:?}: {status}");
}

#[test]
fn a_closed_stdout_ends_the_command_with_status_zero() {
    let dir = std::env::temp_dir().join(format!("rtk_cli_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    rtk(&dir, &["generate", "rmat:200:800:3", "--out", "g.rtkg"]);
    rtk(&dir, &["index", "build", "g.rtkg", "--out", "g.rtki", "--max-k", "5", "--hubs", "2"]);
    rtk(&dir, &["shard", "split", "g.rtki", "--shards", "3", "--out", "g3.rtki"]);

    for args in [&["stats", "g.rtkg"][..], &["shard", "info", "g3.rtki"]] {
        // The pipe's read end is gone before the child starts: its first
        // write fails with `EPIPE`.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let child = Command::new(RTK)
            .args(args)
            .current_dir(&dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let output = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "rtk {args:?} panicked: {stderr}");
        assert_eq!(output.status.code(), Some(0), "rtk {args:?}: {stderr}");
        assert!(stderr.is_empty(), "rtk {args:?} wrote to stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
