//! End-to-end tests of the `walshcheck` command-line binary.

use std::process::{Command, Stdio};

use walshcheck::core::json::{self, Json};

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
    // A job spec's JSON integers stop at i64::MAX, so larger budgets are
    // bad values, not numbers to wrap.
    for (line, flag) in [
        (
            "check bench:dom-1 --node-budget 18446744073709551615",
            "--node-budget",
        ),
        (
            "check bench:dom-1 --cache-budget 18446744073709551615",
            "--cache-budget",
        ),
        (
            "check bench:dom-1 --rescue --rescue-budget 9223372036854775808",
            "--rescue-budget",
        ),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let (_, stderr, code) = walshcheck(&args);
        assert_eq!(code, Some(3), "{line}");
        assert!(stderr.contains(&format!("bad {flag}")), "{line}: {stderr}");
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
    let doc = json::parse(&stdout).expect("stdout is one JSON document");
    let cache = doc.get("cache").expect("cache block");
    assert_eq!(cache.get("enabled"), Some(&Json::Bool(true)), "{stdout}");
    // Machine-readable output must be the only thing on stdout.
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.trim_end().ends_with('}'), "{stdout}");
}

/// The report/5 artifact bytes of a spread of runs, pinned by their
/// content address: secure, violated (a `1/2^3` coefficient and a
/// non-ASCII reason), higher-order NI, node-budget quarantines (104 of
/// them, the list truncated at 64), a rescued run with its recovery block,
/// the glitch model, PINI, and FUJITA. Job ids and stored artifacts name
/// these bytes, so any change to them is a format break.
#[test]
fn report_artifacts_are_pinned() {
    for (line, code, hash) in [
        (
            "check bench:dom-1 --property sni",
            0,
            "e573534be166aafeadda0dfc6b345ea6d149aa4ca662ae44b4720fde34c97918",
        ),
        (
            "check bench:ti-1 --property sni --mode rowwise",
            1,
            "29fa1ce6f5071006cb275a05e55e2222c9ed01b909b619e454cb997c403ded6a",
        ),
        (
            "check bench:fig1 --property ni --order 2",
            1,
            "d01c44f2acc2b458382e9d764afe8d8d04ff0bcee336e6d9648ce7a9c09671f8",
        ),
        (
            "check bench:dom-2 --property sni --node-budget 1",
            2,
            "a4a2cd7f6b67dad88d7d8660e5df5df12d4e00f5d604863b22297c73aba34d1a",
        ),
        (
            "check bench:dom-2 --property sni --node-budget 1 --rescue",
            0,
            "05b1c38564539ae6f555fc9868d00060867ca2eb5f56e375354e43c3b24bca1b",
        ),
        (
            "check bench:isw-1 --property sni --glitch",
            1,
            "9068e8db3376aa6d42f0c1dd9a2545e4b448c3e04ed3ce21a02ed15bfa914916",
        ),
        (
            "check bench:hpc2-1 --property pini",
            0,
            "9217f75fcc678394a325891131069aacf254a1cfdf2ea377b5b68c2239affc31",
        ),
        (
            "check bench:keccak-1 --property probing --engine fujita --mode rowwise",
            0,
            "026c3263f244726fbe6e19ae8cfb473e8a68155239e665f3a92f641a13a638d6",
        ),
    ] {
        let mut args: Vec<&str> = line.split(' ').collect();
        args.push("--json");
        let (stdout, stderr, got) = walshcheck(&args);
        assert_eq!(got, Some(code), "{line}: {stderr}");
        let doc = json::parse(&stdout).expect("stdout is one JSON document");
        assert_eq!(
            doc.get("report_hash").and_then(Json::as_str),
            Some(hash),
            "{line}"
        );
    }
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
    let cache = |stdout: &str| {
        json::parse(stdout)
            .expect("stdout is one JSON document")
            .get("cache")
            .cloned()
            .expect("cache block")
    };
    assert_eq!(
        cache(&cached.0).get("enabled"),
        Some(&Json::Bool(true)),
        "{}",
        cached.0
    );
    let off = cache(&uncached.0);
    assert_eq!(
        off.get("enabled"),
        Some(&Json::Bool(false)),
        "{}",
        uncached.0
    );
    // Caching is a pure time/memory trade: same verdict either way, and
    // the disabled run reports all-zero counters.
    for counter in ["hits", "misses", "evictions", "peak_bytes"] {
        assert_eq!(off.get(counter), Some(&Json::Int(0)), "{counter}");
    }
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
/// command's own — the verdict's, for `check`. A closed stderr must not
/// panic either: it stops the `--progress` ticker, and an error still
/// exits 3.
#[test]
fn closed_stdout_ends_output_quietly_with_the_commands_own_code() {
    for (args, close_stdout, want) in [
        (&["check", "bench:dom-2", "--property", "sni"][..], true, 0),
        (&["list"][..], true, 0),
        (
            &["check", "bench:dom-2", "--property", "sni", "--progress"][..],
            false,
            0,
        ),
        (&["check", "bench:nonesuch"][..], false, 3),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_walshcheck"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        if close_stdout {
            drop(child.stdout.take());
        } else {
            drop(child.stderr.take());
        }
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
