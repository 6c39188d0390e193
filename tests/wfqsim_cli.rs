//! `wfqsim` CLI contract: validated flags fail with a structured error
//! message and a non-zero exit code — never a panic — the multi-port
//! flags accept well-formed non-uniform rate lists, and the telemetry
//! flags (`--metrics`, `--trace-events`, `--latency-report`,
//! `--event-log`) produce parseable, deterministic artifacts.

use std::process::{Command, Output};

fn wfqsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfqsim"))
        .args(args)
        .output()
        .expect("run wfqsim")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn zero_rate_is_a_structured_error_not_a_panic() {
    for bad in ["0", "-1e6", "nan", "inf"] {
        let out = wfqsim(&["--scheduler", "hw", "--ports", "2", "--rate", bad]);
        assert!(!out.status.success(), "--rate {bad} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("rate must be positive and finite"),
            "--rate {bad}: expected structured error, got: {err}"
        );
        assert!(
            !err.contains("panicked"),
            "--rate {bad} panicked instead of erroring: {err}"
        );
    }
}

#[test]
fn zero_port_rate_is_a_structured_error_with_the_port_named() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--ports",
        "2",
        "--flows",
        "8",
        "--port-rates",
        "2e6,0",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--port-rates: port 1: rate must be positive and finite"),
        "expected the failing port in the error, got: {err}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn port_rate_count_must_match_ports() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--ports",
        "4",
        "--flows",
        "16",
        "--port-rates",
        "2e6,2e6",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("2 rates given but --ports is 4"),
        "expected a count-mismatch error, got: {err}"
    );
}

#[test]
fn non_uniform_port_rates_run_end_to_end() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--ports",
        "2",
        "--flows",
        "8",
        "--horizon",
        "0.2",
        "--rate",
        "2e6",
        "--port-rates",
        "4e6,1e6",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "run failed: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("non-uniform rates"),
        "report should flag non-uniform rates: {stdout}"
    );
    // Both configured rates appear in the per-port table.
    assert!(
        stdout.contains("4.000Mb/s"),
        "missing port 0 rate: {stdout}"
    );
    assert!(
        stdout.contains("1.000Mb/s"),
        "missing port 1 rate: {stdout}"
    );
}

#[test]
fn metrics_flag_writes_a_parseable_deterministic_snapshot() {
    let dir = std::env::temp_dir().join("wfqsim_cli_metrics");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run = |name: &str| -> String {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp path");
        let out = wfqsim(&[
            "--ports",
            "2",
            "--flows",
            "8",
            "--horizon",
            "0.2",
            "--metrics",
            path,
            "--trace-events",
            "8",
        ]);
        assert!(out.status.success(), "run failed: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            stdout.contains("telemetry snapshot written to"),
            "missing confirmation line: {stdout}"
        );
        std::fs::read_to_string(path).expect("snapshot file written")
    };

    let first = run("a.json");
    let parsed = wfq_sorter::telemetry::parse_flat_json(&first)
        .expect("snapshot is a flat JSON number object");
    let value = |key: &str| {
        parsed
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{key} missing from snapshot"))
    };
    // Per-shard counters, a latency histogram, and merged legacy stats
    // all travel in the one snapshot.
    assert!(value("sched_enqueued_total") > 0.0);
    assert_eq!(
        value("sched_enqueued_port0") + value("sched_enqueued_port1"),
        value("sched_enqueued_total")
    );
    assert!(value("tag_sort_latency_cycles_count") > 0.0);
    assert!(value("tag_sort_latency_cycles_p99") >= 1.0);
    assert!(value("hw_agg_enqueued") > 0.0);
    assert!(value("hw_agg_buf_peak") >= 1.0);

    // Same seed, same flags → byte-identical snapshot.
    let second = run("b.json");
    assert_eq!(first, second, "snapshot is not deterministic");
}

#[test]
fn unwritable_metrics_path_is_a_structured_error() {
    let out = wfqsim(&[
        "--ports",
        "2",
        "--flows",
        "8",
        "--horizon",
        "0.1",
        "--metrics",
        "/nonexistent-dir/out.json",
    ]);
    assert!(!out.status.success(), "unwritable path must fail the run");
    let err = stderr(&out);
    assert!(
        err.contains("cannot write /nonexistent-dir/out.json"),
        "expected structured write error, got: {err}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn trace_events_capacity_is_validated() {
    for (bad, expect) in [
        ("abc", "--trace-events: invalid digit"),
        ("-3", "--trace-events: invalid digit"),
        ("0", "--trace-events: capacity must be at least 1"),
    ] {
        let out = wfqsim(&[
            "--ports",
            "2",
            "--metrics",
            "out.json",
            "--trace-events",
            bad,
        ]);
        assert!(!out.status.success(), "--trace-events {bad} must fail");
        let err = stderr(&out);
        assert!(
            err.contains(expect),
            "--trace-events {bad}: expected {expect:?}, got: {err}"
        );
        assert!(!err.contains("panicked"), "panicked: {err}");
    }
}

#[test]
fn trace_events_requires_metrics() {
    let out = wfqsim(&["--ports", "2", "--trace-events", "8"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--trace-events: requires --metrics"),
        "expected dependency error, got: {err}"
    );
}

#[test]
fn metrics_rejects_software_schedulers() {
    let out = wfqsim(&["--scheduler", "wfq", "--metrics", "out.json"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--metrics: instruments the hardware pipeline"),
        "expected scheduler-kind error, got: {err}"
    );
    assert!(
        err.contains("--scheduler wfq is software"),
        "error should name the offending scheduler: {err}"
    );
}

#[test]
fn explicit_software_scheduler_with_ports_is_rejected_in_either_flag_order() {
    // Regression: `--scheduler wfq --ports 4` used to slip past argument
    // validation and only fail (or silently resolve) after the trace had
    // been generated. Both flag orders must now fail at parse time with
    // a structured error naming both offending flags.
    let orders: [&[&str]; 2] = [
        &["--scheduler", "wfq", "--ports", "4"],
        &["--ports", "4", "--scheduler", "wfq"],
    ];
    for args in orders {
        let out = wfqsim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("--scheduler wfq") && err.contains("--ports 4"),
            "{args:?}: error should name both flags, got: {err}"
        );
        assert!(
            err.contains("only 'hw' supports multi-port"),
            "{args:?}: expected the multi-port explanation, got: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    }
    // An explicit hw scheduler with ports stays accepted.
    let out = wfqsim(&[
        "--ports",
        "2",
        "--scheduler",
        "hw",
        "--flows",
        "8",
        "--horizon",
        "0.1",
    ]);
    assert!(
        out.status.success(),
        "--scheduler hw --ports 2 must run: {}",
        stderr(&out)
    );
}

#[test]
fn backend_with_software_scheduler_is_rejected_in_either_flag_order() {
    // `--backend` selects the engine inside the hardware pipeline, so a
    // software scheduler alongside it must fail at parse time — in both
    // flag orders — with an error naming both offending flags.
    let orders: [&[&str]; 3] = [
        &["--scheduler", "wfq", "--backend", "fastpath"],
        &["--backend", "fastpath", "--scheduler", "wfq"],
        &["--backend", "fastpath"], // default scheduler resolves to wfq
    ];
    for args in orders {
        let out = wfqsim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("--backend fastpath") && err.contains("--scheduler wfq"),
            "{args:?}: error should name both flags, got: {err}"
        );
        assert!(
            err.contains("sorting engine"),
            "{args:?}: expected the backend explanation, got: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    }
    // The pipelined backend is held to the same parse-time contract.
    let out = wfqsim(&["--scheduler", "wfq", "--backend", "pipelined"]);
    assert!(!out.status.success(), "--backend pipelined needs hw");
    let err = stderr(&out);
    assert!(
        err.contains("--backend pipelined") && err.contains("--scheduler wfq"),
        "pipelined rejection should name both flags, got: {err}"
    );
    // With the hardware pipeline (explicit or via --ports) it runs.
    for args in [
        &[
            "--scheduler",
            "hw",
            "--backend",
            "fastpath",
            "--horizon",
            "0.1",
        ][..],
        &[
            "--ports",
            "2",
            "--flows",
            "8",
            "--backend",
            "heap",
            "--horizon",
            "0.1",
        ][..],
        &[
            "--ports",
            "2",
            "--flows",
            "8",
            "--backend",
            "pipelined",
            "--horizon",
            "0.1",
        ][..],
    ] {
        let out = wfqsim(args);
        assert!(out.status.success(), "{args:?} failed: {}", stderr(&out));
    }
}

#[test]
fn unknown_backend_is_a_structured_error() {
    let out = wfqsim(&["--scheduler", "hw", "--backend", "btree"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--backend: unknown backend \"btree\""),
        "expected structured backend error, got: {err}"
    );
    assert!(
        err.contains("trie, fastpath, heap, or pipelined"),
        "error should list the valid backends: {err}"
    );
}

#[test]
fn unknown_policy_is_a_structured_error() {
    let out = wfqsim(&["--scheduler", "hw", "--policy", "lstf"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--policy: unknown policy \"lstf\""),
        "expected structured policy error, got: {err}"
    );
    assert!(
        err.contains("wfq, stfq, srpt, fifo+, prio, leaky, hwfq"),
        "error should list the valid policies: {err}"
    );
}

#[test]
fn policy_and_admission_reject_software_schedulers() {
    // `--policy` programs the rank function inside the hardware
    // pipeline; like `--backend`, it must fail at parse time alongside a
    // software scheduler, in either flag order, naming both flags.
    let orders: [&[&str]; 3] = [
        &["--scheduler", "wfq", "--policy", "stfq"],
        &["--policy", "stfq", "--scheduler", "wfq"],
        &["--policy", "stfq"], // default scheduler resolves to wfq
    ];
    for args in orders {
        let out = wfqsim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("--policy stfq") && err.contains("--scheduler wfq"),
            "{args:?}: error should name both flags, got: {err}"
        );
        assert!(
            err.contains("rank function"),
            "{args:?}: expected the policy explanation, got: {err}"
        );
    }
    let out = wfqsim(&["--scheduler", "drr", "--admission", "push-out"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--admission push-out") && err.contains("--scheduler drr"),
        "error should name both flags, got: {err}"
    );
}

#[test]
fn every_documented_policy_runs_and_is_named_in_the_header() {
    for policy in ["wfq", "stfq", "srpt", "fifo+", "prio", "leaky", "hwfq"] {
        let out = wfqsim(&[
            "--scheduler",
            "hw",
            "--policy",
            policy,
            "--flows",
            "4",
            "--horizon",
            "0.1",
        ]);
        assert!(
            out.status.success(),
            "--policy {policy} failed: {}",
            stderr(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            stdout.contains(&format!("scheduler hw (trie, policy {policy})")),
            "--policy {policy}: header should name the policy: {stdout}"
        );
    }
    // Multi-port and push-out admission compose with a policy.
    let out = wfqsim(&[
        "--ports",
        "2",
        "--flows",
        "8",
        "--policy",
        "stfq",
        "--admission",
        "push-out",
        "--horizon",
        "0.1",
    ]);
    assert!(
        out.status.success(),
        "sharded stfq failed: {}",
        stderr(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("scheduler hw (sharded, trie, policy stfq)"),
        "sharded header should name the policy: {stdout}"
    );
}

#[test]
fn default_policy_leaves_the_report_byte_identical() {
    // `--policy wfq` must be the scheduler the hardware pipeline already
    // ran before the flag existed: everything after the header line
    // (which names the explicit policy) is byte-identical.
    let run = |args: &[&str]| -> String {
        let out = wfqsim(args);
        assert!(out.status.success(), "{args:?} failed: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let (_, report) = stdout.split_once('\n').expect("header line");
        report.to_string()
    };
    let implicit = run(&["--scheduler", "hw", "--flows", "4", "--horizon", "0.2"]);
    let explicit = run(&[
        "--scheduler",
        "hw",
        "--policy",
        "wfq",
        "--flows",
        "4",
        "--horizon",
        "0.2",
    ]);
    assert_eq!(implicit, explicit, "--policy wfq changed the default run");
}

#[test]
fn help_enumerates_every_accepted_flag_value() {
    let out = wfqsim(&["--help"]);
    assert!(out.status.success(), "--help must exit successfully");
    let help = stderr(&out);
    let catalogs: [(&str, &[&str]); 4] = [
        ("--backend", &["trie", "fastpath", "heap", "pipelined"]),
        (
            "--policy",
            &["wfq", "stfq", "srpt", "fifo+", "prio", "leaky", "hwfq"],
        ),
        ("--admission", &["tail-drop", "push-out"]),
        (
            "--fault-policy",
            &["fail-fast", "detect-and-count", "scrub-and-repair"],
        ),
    ];
    for (flag, values) in catalogs {
        assert!(help.contains(flag), "help must document {flag}");
        for value in values {
            assert!(
                help.contains(value),
                "help must list {value:?} under {flag}: {help}"
            );
        }
    }
}

#[test]
fn all_backends_serve_the_same_departure_schedule_end_to_end() {
    // The SortBackend contract end to end: swapping the engine changes
    // only the header line, never the per-flow delay/throughput report.
    let run = |backend: &str| -> (String, String) {
        let out = wfqsim(&[
            "--scheduler",
            "hw",
            "--backend",
            backend,
            "--flows",
            "4",
            "--horizon",
            "0.2",
        ]);
        assert!(out.status.success(), "{backend} failed: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let (header, report) = stdout.split_once('\n').expect("header line");
        (header.to_string(), report.to_string())
    };
    let (trie_header, trie) = run("trie");
    assert!(
        trie_header.contains("scheduler hw (trie)"),
        "header should name the backend: {trie_header}"
    );
    let (_, fastpath) = run("fastpath");
    let (_, heap) = run("heap");
    let (_, pipelined) = run("pipelined");
    assert_eq!(trie, fastpath, "fastpath report diverges from trie");
    assert_eq!(trie, heap, "heap report diverges from trie");
    assert_eq!(trie, pipelined, "pipelined report diverges from trie");
}

#[test]
fn backends_without_addressable_state_record_fault_rejections() {
    let dir = std::env::temp_dir().join("wfqsim_cli_backend_faults");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("heap.txt");
    let path = path.to_str().expect("utf-8 temp path");
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--backend",
        "heap",
        "--flows",
        "4",
        "--horizon",
        "0.1",
        "--inject-faults",
        "4@7:trie:1",
        "--fault-report",
        path,
    ]);
    assert!(out.status.success(), "run failed: {}", stderr(&out));
    let report = std::fs::read_to_string(path).expect("fault report written");
    // The heap oracle has no sorter hardware state: every scheduled
    // sorter fault must surface as a structured rejection, not a
    // silent drop or a panic. (An `any` plan would not do: the shared
    // packet buffer is scheduler-owned and faultable under every
    // backend, so its draws inject rather than reject.)
    assert!(
        report.contains("injected=0 detected=0 repaired=0 silent=0"),
        "heap must inject nothing:\n{report}"
    );
    assert_eq!(
        report.matches(" rejected: ").count(),
        4,
        "all 4 scheduled faults must be recorded as rejections:\n{report}"
    );
    assert!(
        report.contains("backend `heap` has no addressable"),
        "rejections should carry the structured attach error:\n{report}"
    );
}

/// A buffer parity alarm drops the packet it hit; the report's GPS-lag
/// line must measure the packets that did depart instead of panicking
/// on the missing one.
#[test]
fn fault_dropped_packets_do_not_abort_the_gps_lag_report() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--flows",
        "16",
        "--seed",
        "3",
        "--inject-faults",
        "64@5:buffer:1",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "run failed: {err}");
    assert!(!err.contains("panicked"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lag = stdout
        .lines()
        .find_map(|l| l.strip_prefix("GPS lag: "))
        .expect("report ends with a GPS-lag line");
    let ms: f64 = lag.split_whitespace().next().unwrap().parse().unwrap();
    assert!(ms.is_finite(), "GPS lag {lag}");
}

#[test]
fn latency_report_exports_per_flow_sojourn_keys() {
    let dir = std::env::temp_dir().join("wfqsim_cli_latency");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("latency.json");
    let path = path.to_str().expect("utf-8 temp path");
    let out = wfqsim(&[
        "--ports",
        "4",
        "--flows",
        "16",
        "--horizon",
        "0.2",
        "--latency-report",
        path,
    ]);
    assert!(out.status.success(), "run failed: {}", stderr(&out));
    let report = std::fs::read_to_string(path).expect("latency report written");
    let parsed =
        wfq_sorter::telemetry::parse_flat_json(&report).expect("report is flat JSON numbers");
    let value = |key: &str| {
        parsed
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{key} missing from latency report"))
    };
    // Sojourn histograms in cycles, per global flow id, with the wall
    // clock split into buffer residency and retrieve-to-departure.
    for flow in [0, 15] {
        assert!(value(&format!("flow{flow}_sojourn_p50")) >= 4.0);
        assert!(
            value(&format!("flow{flow}_sojourn_p99")) >= value(&format!("flow{flow}_sojourn_p50"))
        );
        assert!(
            value(&format!("flow{flow}_sojourn_max"))
                >= value(&format!("flow{flow}_sojourn_p99")) / 2.0
        );
        assert!(value(&format!("flow{flow}_wait_ns_count")) > 0.0);
        assert!(value(&format!("flow{flow}_service_ns_count")) > 0.0);
        assert!(value(&format!("flow{flow}_sojourn_ns_count")) > 0.0);
    }
    assert_eq!(value("latency_flows"), 16.0);
    assert!(value("latency_samples") > 0.0);
}

#[test]
fn event_log_streams_every_event_deterministically() {
    let dir = std::env::temp_dir().join("wfqsim_cli_event_log");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run = |name: &str| -> String {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp path");
        // Default one-second horizon: ~900 packets × 3 event kinds is
        // far beyond the 256-event default ring per shard, so only the
        // streamed sink can hold the complete log.
        let out = wfqsim(&["--ports", "4", "--flows", "16", "--event-log", path]);
        assert!(out.status.success(), "run failed: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            stdout.contains("event log written to"),
            "missing confirmation line: {stdout}"
        );
        std::fs::read_to_string(path).expect("event log written")
    };

    let first = run("a.ndjson");
    // Every line is one JSON event object; enqueue and dequeue events
    // balance, which can only hold if the sink saw every event (the
    // ring alone would have evicted the early ones on this run length).
    let mut enq = 0u64;
    let mut deq = 0u64;
    for line in first.lines() {
        assert!(
            line.starts_with("{\"shard\":") && line.ends_with('}'),
            "malformed event line: {line}"
        );
        if line.contains("\"kind\":\"enqueue\"") {
            enq += 1;
        }
        if line.contains("\"kind\":\"dequeue\"") {
            deq += 1;
        }
    }
    assert!(enq > 256, "expected a run long enough to overflow the ring");
    assert_eq!(enq, deq, "every enqueue must have its dequeue logged");

    // Same seed, same flags → byte-identical log.
    let second = run("b.ndjson");
    assert_eq!(first, second, "event log is not deterministic");
}

#[test]
fn latency_and_event_flags_reject_software_schedulers() {
    for flag in ["--latency-report", "--event-log"] {
        let out = wfqsim(&["--scheduler", "drr", flag, "out.tmp"]);
        assert!(!out.status.success(), "{flag} with drr must fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{flag}: instruments the hardware pipeline")),
            "{flag}: expected scheduler-kind error, got: {err}"
        );
    }
}

#[test]
fn unwritable_event_log_path_is_a_structured_error() {
    let out = wfqsim(&[
        "--ports",
        "2",
        "--flows",
        "8",
        "--horizon",
        "0.1",
        "--event-log",
        "/nonexistent-dir/events.ndjson",
    ]);
    assert!(!out.status.success(), "unwritable path must fail the run");
    let err = stderr(&out);
    assert!(
        err.contains("--event-log: cannot create /nonexistent-dir/events.ndjson"),
        "expected structured create error, got: {err}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn bad_fault_spec_is_a_structured_error() {
    for (bad, expect) in [
        ("bogus", "bad fault spec"),
        ("0@7", "fault count must be positive"),
        ("4@7:cache", "unknown fault component"),
        ("4@7:trie:0", "bit count must be"),
    ] {
        let out = wfqsim(&["--scheduler", "hw", "--inject-faults", bad]);
        assert!(!out.status.success(), "--inject-faults {bad} must fail");
        let err = stderr(&out);
        assert!(
            err.contains("--inject-faults:") && err.contains(expect),
            "--inject-faults {bad}: expected {expect:?}, got: {err}"
        );
        assert!(!err.contains("panicked"), "panicked: {err}");
    }
}

#[test]
fn bad_fault_policy_is_a_structured_error() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--inject-faults",
        "4@7",
        "--fault-policy",
        "shrug",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--fault-policy: unknown fault policy \"shrug\""),
        "expected structured policy error, got: {err}"
    );
    assert!(
        err.contains("fail-fast, detect-and-count, or scrub-and-repair"),
        "error should list the valid policies: {err}"
    );
}

#[test]
fn fault_flags_require_a_campaign_and_the_hardware_pipeline() {
    // --fault-policy / --fault-report without --inject-faults.
    for flag in ["--fault-policy", "--fault-report"] {
        let arg = if flag == "--fault-policy" {
            "fail-fast"
        } else {
            "out.tmp"
        };
        let out = wfqsim(&["--scheduler", "hw", flag, arg]);
        assert!(!out.status.success(), "{flag} without a campaign must fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{flag}: requires --inject-faults")),
            "{flag}: expected dependency error, got: {err}"
        );
    }
    // --inject-faults against a software scheduler.
    let out = wfqsim(&["--scheduler", "wfq", "--inject-faults", "4@7"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("--inject-faults: instruments the hardware pipeline"),
        "expected scheduler-kind error, got: {err}"
    );
}

#[test]
fn unwritable_fault_report_path_is_a_structured_error() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--flows",
        "4",
        "--horizon",
        "0.1",
        "--inject-faults",
        "4@7",
        "--fault-report",
        "/nonexistent-dir/faults.txt",
    ]);
    assert!(!out.status.success(), "unwritable path must fail the run");
    let err = stderr(&out);
    assert!(
        err.contains("--fault-report: cannot write /nonexistent-dir/faults.txt"),
        "expected structured write error, got: {err}"
    );
    assert!(!err.contains("panicked"), "panicked: {err}");
}

#[test]
fn fault_report_is_byte_deterministic_and_reconciles() {
    let dir = std::env::temp_dir().join("wfqsim_cli_faults");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run = |name: &str| -> String {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp path");
        let out = wfqsim(&[
            "--ports",
            "2",
            "--flows",
            "8",
            "--horizon",
            "0.2",
            "--inject-faults",
            "8@7:any:1",
            "--fault-report",
            path,
        ]);
        assert!(out.status.success(), "run failed: {}", stderr(&out));
        std::fs::read_to_string(path).expect("fault report written")
    };

    let first = run("a.txt");
    assert!(first.starts_with("# wfqsim fault report\n"));
    assert!(first.contains("policy=detect-and-count spec=8@7:any:1 ports=2"));
    // The per-port totals reconcile: detected + silent == injected.
    let mut injected = 0u64;
    let mut accounted = 0u64;
    for line in first.lines().filter(|l| l.contains(" injected=")) {
        let field = |key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .unwrap_or_else(|| panic!("{key} missing in {line:?}"))
                .parse()
                .expect("numeric total")
        };
        injected += field("injected=");
        accounted += field("detected=") + field("silent=");
    }
    assert!(injected > 0, "no faults materialized:\n{first}");
    assert_eq!(accounted, injected, "ledger does not reconcile:\n{first}");

    // Same seed, same flags → byte-identical report.
    let second = run("b.txt");
    assert_eq!(first, second, "fault report is not deterministic");
}

#[test]
fn event_log_format_is_validated_and_compact_round_trips() {
    // Unknown format and a format without a log are structured errors.
    let out = wfqsim(&[
        "--ports",
        "2",
        "--event-log",
        "x",
        "--event-log-format",
        "xml",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--event-log-format: unknown event log format \"xml\""),
        "expected format error, got: {}",
        stderr(&out)
    );
    let out = wfqsim(&["--ports", "2", "--event-log-format", "compact"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--event-log-format: requires --event-log"),
        "expected dependency error, got: {}",
        stderr(&out)
    );

    // A compact log decodes back to exactly the events of a JSON run
    // with the same seed and flags.
    let dir = std::env::temp_dir().join("wfqsim_cli_compact");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run = |name: &str, format: &str| -> String {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp path");
        let out = wfqsim(&[
            "--ports",
            "2",
            "--flows",
            "8",
            "--horizon",
            "0.2",
            "--event-log",
            path,
            "--event-log-format",
            format,
        ]);
        assert!(out.status.success(), "run failed: {}", stderr(&out));
        std::fs::read_to_string(path).expect("event log written")
    };
    let json = run("a.ndjson", "json");
    let compact = run("a.compact", "compact");
    assert!(
        compact.len() < json.len() / 2,
        "compact log should be much smaller: {} vs {} bytes",
        compact.len(),
        json.len()
    );
    let decoded =
        wfq_sorter::telemetry::parse_compact_event_log(&compact).expect("compact log parses");
    let rendered: String = decoded
        .iter()
        .map(|e| wfq_sorter::telemetry::event_to_json(e) + "\n")
        .collect();
    assert_eq!(rendered, json, "compact log does not round-trip");
}

#[test]
fn uniform_multiport_run_still_reports_the_shared_rate() {
    let out = wfqsim(&[
        "--scheduler",
        "hw",
        "--ports",
        "2",
        "--flows",
        "8",
        "--horizon",
        "0.2",
        "--rate",
        "2e6",
    ]);
    let err = stderr(&out);
    assert!(out.status.success(), "run failed: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.contains("2 ports x 2.000 Mb/s"),
        "uniform header missing: {stdout}"
    );
}
