//! End-to-end test of the `wiclean` CLI binary.

use std::process::Command;

fn wiclean() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wiclean"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn generate_stats_mine_detect_round_trip() {
    let dir = std::env::temp_dir().join("wiclean_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let report = dir.join("report.json");

    // generate
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "software",
            "--seeds",
            "150",
            "--rng",
            "7",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(corpus.exists());

    // stats
    let out = wiclean()
        .args(["stats", "--corpus", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SoftwareProject"), "{stdout}");
    assert!(stdout.contains("revisions"), "{stdout}");

    // mine → JSON report
    let out = wiclean()
        .args([
            "mine",
            "--corpus",
            corpus.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["seed_type"], "SoftwareProject");
    assert!(
        !parsed["patterns"].as_array().unwrap().is_empty(),
        "patterns discovered"
    );

    // detect
    let out = wiclean()
        .args([
            "detect",
            "--corpus",
            corpus.to_str().unwrap(),
            "--threads",
            "2",
            "--top",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pattern (freq"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn serve_and_suggest_round_trip() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join("wiclean_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "soccer",
            "--seeds",
            "40",
            "--rng",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One-shot mode: an arbitrary entity answers cleanly (suggestions or
    // the explicit "no suggestions" line — never an error).
    let out = wiclean()
        .args([
            "suggest",
            "--corpus",
            corpus.to_str().unwrap(),
            "--entity",
            "No Such Page",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("no suggestions"));

    // Server mode: bind an OS-picked port, speak the wire protocol, hot
    // reload, shut down over the wire, and exit cleanly.
    let mut child = wiclean()
        .args([
            "serve",
            "--corpus",
            corpus.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |req: &str| -> serde_json::Value {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let v = send(r#"{"op":"ping"}"#);
    assert_eq!(v.get("ack").and_then(|a| a.as_str()), Some("pong"));
    let v = send(r#"{"op":"suggest","entity":"No Such Page"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    let v = send(r#"{"op":"reload"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(2));
    let v = send(r#"{"op":"stats"}"#);
    assert_eq!(
        v.get("serve")
            .and_then(|s| s.get("swaps"))
            .and_then(|s| s.as_u64()),
        Some(1)
    );
    let v = send(r#"{"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));

    let status = child.wait().unwrap();
    assert!(status.success(), "server exits cleanly after wire shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags a command does not read fail loudly, naming the flag, instead of
/// being ignored: a typo'd `--fault-rat` must not run a fault-free mine,
/// and the retired `--planner` / `--replan-factor` knobs are gone.
#[test]
fn unknown_flags_fail_with_their_name() {
    let dir = std::env::temp_dir().join("wiclean_cli_unknown_flag_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "soccer",
            "--seeds",
            "20",
            "--rng",
            "13",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let corpus = corpus.to_str().unwrap();
    for (command, name, value) in [
        ("mine", "planner", "off"),
        ("mine", "fault-rat", "0.1"),
        ("mine", "replan-factor", "2.5"),
        ("stream", "planner", "off"),
        ("detect", "memory-budget", "4"),
        ("stats", "threads", "2"),
    ] {
        let out = wiclean()
            .args([command, "--corpus", corpus, &format!("--{name}"), value])
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "`{command} --{name}` must fail, not be ignored"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --{name}")),
            "`{command} --{name}`: {stderr}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = wiclean().output().unwrap();
    assert!(!out.status.success(), "no command must fail");

    let out = wiclean().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success(), "unknown command must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "underwater-basket-weaving",
            "--out",
            "/tmp/x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown domain must fail");

    let out = wiclean()
        .args(["mine", "--corpus", "/nonexistent/corpus.json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing corpus must fail");

    for (name, value) in [("planner", "sideways"), ("replan-factor", "1.0")] {
        let out = wiclean()
            .args([
                "mine",
                "--corpus",
                "/tmp/x.json",
                &format!("--{name}"),
                value,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "retired --{name} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --{name}")),
            "{stderr}"
        );
    }

    let out = wiclean().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
