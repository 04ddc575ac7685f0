//! End-to-end tests of the `walshcheck` command-line binary.

use std::process::{Command, Stdio};

fn walshcheck(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_walshcheck"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn list_names_all_benchmarks() {
    let (stdout, _, code) = walshcheck(&["list"]);
    assert_eq!(code, Some(0));
    for name in ["ti-1", "trichina-1", "isw-1", "dom-4", "keccak-3"] {
        assert!(stdout.contains(&format!("bench:{name}")), "missing {name}");
    }
}

#[test]
fn check_secure_gadget_exits_zero() {
    let (stdout, _, code) = walshcheck(&["check", "bench:dom-1", "--property", "sni"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("1-SNI: secure"), "{stdout}");
}

#[test]
fn check_insecure_gadget_exits_nonzero_with_witness() {
    let (stdout, _, code) =
        walshcheck(&["check", "bench:ti-1", "--property", "sni", "--order", "1"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("witness probes"), "{stdout}");
}

#[test]
fn check_engine_and_mode_flags() {
    for engine in ["lil", "map", "mapi", "fujita"] {
        for mode in ["rowwise", "joint"] {
            let (stdout, _, code) = walshcheck(&[
                "check",
                "bench:isw-1",
                "--engine",
                engine,
                "--mode",
                mode,
                "--threads",
                "2",
            ]);
            assert_eq!(code, Some(0), "{engine}/{mode}: {stdout}");
        }
    }
}

#[test]
fn profile_prints_property_matrix() {
    let (stdout, _, code) = walshcheck(&["profile", "bench:trichina-1"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("probing"), "{stdout}");
    assert!(stdout.contains("PINI"), "{stdout}");
}

#[test]
fn dump_then_check_round_trips_through_a_file() {
    let (il, _, code) = walshcheck(&["dump", "bench:dom-1"]);
    assert_eq!(code, Some(0));
    assert!(il.contains("module"), "{il}");
    let dir = std::env::temp_dir().join("walshcheck-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("dom1.il");
    std::fs::write(&path, &il).expect("write");
    let (stdout, _, code) = walshcheck(&["check", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("secure"), "{stdout}");
}

#[test]
fn info_reports_ports_and_stats() {
    let (stdout, _, code) = walshcheck(&["info", "bench:dom-2"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("3 shares"), "{stdout}");
    assert!(stdout.contains("non-linear"), "{stdout}");
}

#[test]
fn errors_are_reported_cleanly() {
    // Usage and I/O errors exit 3, distinct from the verdict codes 0/1/2.
    let (_, stderr, code) = walshcheck(&["check", "bench:nonesuch"]);
    assert_eq!(code, Some(3));
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
    let (_, stderr, code) = walshcheck(&["check", "bench:dom-1", "--engine", "warp"]);
    assert_eq!(code, Some(3));
    assert!(stderr.contains("unknown engine"), "{stderr}");
    let (_, _, code) = walshcheck(&["frobnicate"]);
    assert_eq!(code, Some(3));
    // walshcheck never reorders variables, `--cache-budget 0` replaces
    // `--no-cache`, and no option selects a spectral kernel; the old flags
    // are gone.
    for line in [
        "check bench:dom-1 --presift",
        "check bench:dom-1 --sift auto",
        "check bench:dom-1 --no-cache",
        "check bench:dom-1 --dense-cut 12",
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let (_, stderr, code) = walshcheck(&args);
        assert_eq!(code, Some(3), "{line}");
        assert!(stderr.contains("unknown option"), "{line}: {stderr}");
    }
}

#[test]
fn inconclusive_run_exits_two() {
    // A tiny node budget quarantines combinations: no witness, but no proof
    // either — the exit code must be 2, never 0.
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--node-budget",
        "1",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("INCONCLUSIVE"), "{stdout}");
    assert!(stdout.contains("quarantined"), "{stdout}");
}

#[test]
fn inconclusive_json_report_carries_degradation() {
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--node-budget",
        "1",
        "--json",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    for fragment in [
        "\"outcome\":\"inconclusive\"",
        "\"degradation\":{\"reason\":\"node-budget\"",
        "\"skipped_count\":",
        "\"resumed\":false",
        // Compat: `secure` stays, but it is not a proof on its own.
        "\"secure\":true",
    ] {
        assert!(
            stdout.contains(fragment),
            "missing {fragment} in:\n{stdout}"
        );
    }
}

#[test]
fn checkpoint_resume_round_trips_via_cli() {
    let dir = std::env::temp_dir().join("walshcheck-cli-ckpt");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ck = dir.join("dom2.ck");
    let _ = std::fs::remove_file(&ck);
    let ck_str = ck.to_str().expect("utf-8 path");
    // A full run leaves a complete-frontier checkpoint…
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--json",
        "--checkpoint",
        ck_str,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let text = std::fs::read_to_string(&ck).expect("checkpoint written");
    assert!(
        text.contains("\"schema\":\"walshcheck-checkpoint/1\""),
        "{text}"
    );
    // …and resuming from it reproduces the verdict without re-sweeping.
    let (resumed, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--json",
        "--resume",
        ck_str,
    ]);
    assert_eq!(code, Some(0), "{resumed}");
    assert!(resumed.contains("\"outcome\":\"secure\""), "{resumed}");
    assert!(resumed.contains("\"resumed\":true"), "{resumed}");
    // Resuming against a different circuit is rejected up front (the
    // fingerprint is checked first), and so is a matching checkpoint whose
    // evidence does not fit the run: a candidate naming a site dom-2 does
    // not have, inside the frontier.
    let doctored = text.replace(
        "\"candidates\":[]",
        "\"candidates\":[{\"index\":0,\"sites\":[999]}]",
    );
    assert_ne!(doctored, text, "{text}");
    std::fs::write(&ck, &doctored).expect("checkpoint writable");
    for (bench, message) in [
        ("bench:dom-1", "fingerprint mismatch"),
        ("bench:dom-2", "bad checkpoint"),
    ] {
        let (_, stderr, code) =
            walshcheck(&["check", bench, "--property", "sni", "--resume", ck_str]);
        assert_eq!(code, Some(3), "{stderr}");
        assert!(stderr.contains(message), "{stderr}");
    }
}

#[test]
fn rescue_flag_upgrades_a_starved_run() {
    // Without rescue the tiny budget is inconclusive (exit 2, pinned
    // above); with it every quarantine is re-verified and the run proves
    // security — exit 0 with a recovery summary.
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--node-budget",
        "1",
        "--rescue",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("secure"), "{stdout}");
    assert!(stdout.contains("rescue pass:"), "{stdout}");
    assert!(stdout.contains("0 unresolved"), "{stdout}");

    let (json, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--node-budget",
        "1",
        "--rescue",
        "--json",
    ]);
    assert_eq!(code, Some(0), "{json}");
    for fragment in [
        "\"outcome\":\"secure\"",
        "\"recovery\":{\"attempted\":",
        "\"unresolved\":0",
        "\"rung\":\"budget\"",
        "\"resolution\":\"clean\"",
    ] {
        assert!(json.contains(fragment), "missing {fragment} in:\n{json}");
    }

    // `--no-rescue` restores the conservative behavior.
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--node-budget",
        "1",
        "--rescue",
        "--no-rescue",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("INCONCLUSIVE"), "{stdout}");
}

#[test]
fn json_report_for_secure_gadget() {
    let (stdout, _, code) = walshcheck(&["check", "bench:dom-1", "--property", "sni", "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    for fragment in [
        "\"schema\":\"walshcheck-report/5\"",
        "\"recovery\":null",
        "\"netlist\":\"dom-1\"",
        "\"netlist_sha256\":\"",
        "\"report_hash\":\"",
        "\"cache\":{\"enabled\":true,",
        "\"secure\":true",
        "\"outcome\":\"secure\"",
        "\"degradation\":{\"reason\":null,",
        "\"witness\":null",
        "\"combinations\":",
        "\"cache_hits\":",
        "\"phases\":{",
        "\"enumerate\":",
    ] {
        assert!(
            stdout.contains(fragment),
            "missing {fragment} in:\n{stdout}"
        );
    }
    // Machine-readable output must be the only thing on stdout.
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
}

#[test]
fn json_report_for_insecure_gadget_carries_the_witness() {
    let (stdout, _, code) = walshcheck(&["check", "bench:ti-1", "--property", "sni", "--json"]);
    assert_eq!(code, Some(1), "{stdout}");
    for fragment in [
        "\"secure\":false",
        "\"witness\":{",
        "\"probes\":",
        "\"reason\":",
    ] {
        assert!(
            stdout.contains(fragment),
            "missing {fragment} in:\n{stdout}"
        );
    }
}

#[test]
fn zero_cache_budget_disables_caching_without_changing_the_verdict() {
    let cached = walshcheck(&["check", "bench:dom-2", "--property", "sni", "--json"]);
    let uncached = walshcheck(&[
        "check",
        "bench:dom-2",
        "--property",
        "sni",
        "--json",
        "--cache-budget",
        "0",
    ]);
    assert_eq!(cached.2, Some(0), "{}", cached.0);
    assert_eq!(uncached.2, Some(0), "{}", uncached.0);
    assert!(
        cached.0.contains("\"cache\":{\"enabled\":true,"),
        "{}",
        cached.0
    );
    assert!(
        uncached.0.contains("\"cache\":{\"enabled\":false,"),
        "{}",
        uncached.0
    );
    // Caching is a pure time/memory trade: same verdict either way, and
    // the disabled run reports all-zero counters.
    assert!(uncached
        .0
        .contains("\"hits\":0,\"misses\":0,\"evictions\":0,\"peak_bytes\":0"));
    assert!(cached.0.contains("\"secure\":true"));
    assert!(uncached.0.contains("\"secure\":true"));
}

#[test]
fn json_report_respects_threads_and_engine() {
    let (stdout, _, code) = walshcheck(&[
        "check",
        "bench:dom-1",
        "--property",
        "sni",
        "--json",
        "--threads",
        "3",
        "--engine",
        "lil",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"threads\":3"), "{stdout}");
    assert!(stdout.contains("\"engine\":\"lil\""), "{stdout}");
}

#[test]
fn progress_flag_reports_on_stderr_only() {
    let (stdout, stderr, code) =
        walshcheck(&["check", "bench:dom-1", "--property", "sni", "--progress"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stderr.contains("progress:"), "{stderr}");
    assert!(stderr.contains("combinations"), "{stderr}");
    // The human verdict stays on stdout, uncontaminated by the ticker.
    assert!(stdout.contains("secure"), "{stdout}");
    assert!(!stdout.contains("progress:"), "{stdout}");
}

#[test]
fn glitch_flag_changes_verdicts() {
    // Combinational ISW is 1-SNI in the standard model but not under
    // glitch-extended probes.
    let (stdout, _, code) = walshcheck(&["check", "bench:isw-1", "--property", "sni"]);
    assert_eq!(code, Some(0), "{stdout}");
    let (stdout, _, code) = walshcheck(&["check", "bench:isw-1", "--property", "sni", "--glitch"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("VIOLATED"), "{stdout}");
}

/// A reader that stops early (`walshcheck list | head -1`) closes stdout
/// under the command: the write fails with `BrokenPipe`, which must end
/// the output quietly, never panic (exit 101), and leave the exit code the
/// command's own — the verdict's, for `check`.
#[test]
fn closed_stdout_ends_output_quietly_with_the_commands_own_code() {
    for (args, want) in [
        (&["check", "bench:dom-2", "--property", "sni"][..], 0),
        (&["list"][..], 0),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_walshcheck"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
