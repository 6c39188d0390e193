//! **Experiment E16 — software fast path:** real wall-clock throughput
//! of the FFS (find-first-set) sorter behind the full scheduler, against
//! the cycle-accurate trie simulation and the ordered-set oracle.
//!
//! The backends are sequence-identical by contract (the conformance
//! matrix in `crates/scheduler/tests/backend_matrix.rs` pins that), so
//! this experiment measures the one thing allowed to differ: how fast
//! each engine executes the same drifting-tag pair workload (steady
//! enqueue+dequeue pairs whose finishing tags sweep upward with bounded
//! spread — the Fig. 6 regime, as in E11) on this host.
//!
//! * `fastpath_wall_mpps` — the FFS sorter's end-to-end wall-clock
//!   throughput in Mpps (enqueues + dequeues). **Gated in CI** against
//!   `ci/baseline_fastpath.json` with a generous lower bound, and — like
//!   E12 — only on multi-core runners, where wall-clock numbers are
//!   meaningful.
//! * `fastpath_speedup_vs_trie` — same-host ratio of fastpath to trie
//!   wall-clock throughput. Host speed divides out; informational.
//! * `trie_wall_mpps`, `heap_wall_mpps` — context, never gated (the trie
//!   number is the cost of *simulating* the circuit, not of the silicon
//!   it models).
//!
//! With `--json [PATH]` the metrics are written as a flat JSON object
//! (default `BENCH_fastpath.json`) for `check_regression`. Each backend
//! keeps the best of [`REPS`] repetitions: timing noise on a loaded host
//! is one-sided, so the maximum is the stable estimate.

use std::time::Instant;

use bench::{eng, json_object, print_table};
use fastpath::FfsSorter;
use scheduler::{HwScheduler, SchedulerConfig};
use tagsort::{HeapSorter, SortBackend, SortRetrieveCircuit};
use traffic::{FlowId, FlowSpec, Packet, Time};

const FLOWS: usize = 64;
/// Backlog warmed before timing so the sorter stays busy throughout.
const WARMUP: usize = 64;
/// Timed enqueue+dequeue pairs per repetition.
const PAIRS: usize = 200_000;
/// Best-of repetitions per backend (interruptions only slow a loop
/// down; a genuine regression degrades every repetition).
const REPS: usize = 3;

/// The E11 drifting-tag pair workload through a single `B`-backed
/// scheduler, returning wall-clock packets/s (enqueues + dequeues).
fn run<B: SortBackend>() -> f64 {
    let flows: Vec<FlowSpec> = (0..FLOWS)
        .map(|i| FlowSpec::new(FlowId(i as u32), 1.0 + (i % 7) as f64, 1e6))
        .collect();
    let mut hw = HwScheduler::<B>::with_backend(
        &flows,
        40e9,
        SchedulerConfig {
            capacity: 1 << 14,
            tick_scale: 2000.0,
            ..SchedulerConfig::default()
        },
    );
    let mut t = 0.0;
    let mut arrivals = Vec::with_capacity(WARMUP + PAIRS);
    for seq in 0..(WARMUP + PAIRS) as u64 {
        t += 28e-9; // 140 B at 40 Gb/s
        arrivals.push(Packet {
            flow: FlowId((seq % FLOWS as u64) as u32),
            size_bytes: 140,
            arrival: Time(t),
            seq,
        });
    }
    let (warm, timed) = arrivals.split_at(WARMUP);
    for &pkt in warm {
        hw.enqueue(pkt).expect("capacity");
    }
    let started = Instant::now();
    for &pkt in timed {
        hw.enqueue(pkt).expect("capacity");
        hw.dequeue().expect("backlogged");
    }
    2.0 * timed.len() as f64 / started.elapsed().as_secs_f64()
}

fn best_of<B: SortBackend>() -> f64 {
    (0..REPS).fold(0.0f64, |best, _| best.max(run::<B>()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| "BENCH_fastpath.json".into())
    });

    let trie = best_of::<SortRetrieveCircuit>();
    let ffs = best_of::<FfsSorter>();
    let heap = best_of::<HeapSorter>();

    let mut rows = Vec::new();
    for (name, pps) in [("trie", trie), ("fastpath", ffs), ("heap", heap)] {
        rows.push(vec![
            name.into(),
            format!("{}pps", eng(pps)),
            format!("{:.2}x", pps / trie),
        ]);
    }
    print_table(
        "Sorting backends — wall-clock scheduler throughput (this host)",
        &["backend", "wall-clock", "vs trie"],
        &rows,
    );
    println!(
        "\nEvery backend serves the identical departure sequence; only the\n\
         execution model differs. The trie row is the cost of simulating\n\
         the circuit cycle by cycle — the hardware it models runs at\n\
         35.8 Mpps regardless of this host. The fastpath row is real\n\
         software forwarding capacity and is the number CI gates."
    );

    let metrics: Vec<(String, f64)> = vec![
        ("fastpath_wall_mpps".into(), ffs / 1e6),
        ("fastpath_speedup_vs_trie".into(), ffs / trie),
        ("trie_wall_mpps".into(), trie / 1e6),
        ("heap_wall_mpps".into(), heap / 1e6),
    ];
    if let Some(path) = json_path {
        std::fs::write(&path, json_object(&metrics)).expect("write json");
        println!("\nwrote {path}");
    }
}
