//! The thread-per-shard executor, [`Threaded`].

use std::cell::Cell;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use fairq::RankPolicy;
use tagsort::SortBackend;
use telemetry::Telemetry;
use traffic::{FlowId, Packet};

use super::{
    admit_bucket, sum_totals, take_run, Executor, FaultTotals, Run, SchedulerError, SchedulerStats,
    SojournStamp,
};
use crate::hwsched::{HwScheduler, MigratedFlow};

/// One [`Executor`] operation on one port. Packets carry the shard's
/// **local** flow ids.
enum Command {
    /// Admit the bucket in order, stopping at the first refusal.
    Enqueue(Vec<Packet>),
    /// Serve the smallest tag (polling even an empty shard).
    Dequeue,
    /// Serve up to `max` packets from a backlogged shard.
    DequeueRun {
        max: usize,
    },
    Stats,
    ReconcileFaults,
    ExtractFlow(FlowId),
    InstallFlow(FlowId, MigratedFlow),
    AttachTelemetry(Telemetry),
}

/// A worker's answer to the [`Command`] of the same name.
enum Reply {
    Enqueued(usize, Option<SchedulerError>),
    Dequeued(Option<(Packet, SojournStamp)>),
    Run(Run),
    Stats(Box<SchedulerStats>),
    FaultTotals(FaultTotals),
    Extracted(MigratedFlow),
    Installed(Result<(), (SchedulerError, MigratedFlow)>),
    Attached,
}

/// Commands in flight per worker. Every operation is scatter/gather (at
/// most one outstanding command per worker), so a small constant bound
/// never blocks and still caps channel memory.
const CHANNEL_DEPTH: usize = 2;

/// The worker thread's whole life: apply commands to the owned shard in
/// order, reply to each with the shard's queue length, exit when the
/// frontend hangs up.
fn worker_loop<B: SortBackend, P: RankPolicy>(
    mut shard: HwScheduler<B, P>,
    port: usize,
    commands: Receiver<Command>,
    replies: SyncSender<(Reply, usize)>,
) {
    for cmd in commands {
        let reply = match cmd {
            Command::Enqueue(bucket) => {
                let (accepted, error) = admit_bucket(&mut shard, bucket);
                Reply::Enqueued(accepted, error)
            }
            Command::Dequeue => Reply::Dequeued(shard.dequeue_stamped()),
            Command::DequeueRun { max } => Reply::Run(take_run(&mut shard, max)),
            Command::Stats => Reply::Stats(Box::new(shard.stats())),
            Command::ReconcileFaults => Reply::FaultTotals(shard.reconcile_faults()),
            Command::ExtractFlow(flow) => Reply::Extracted(shard.extract_flow(flow)),
            Command::InstallFlow(flow, backlog) => {
                Reply::Installed(shard.install_flow(flow, &backlog).map_err(|e| (e, backlog)))
            }
            Command::AttachTelemetry(tel) => {
                shard.attach_telemetry(&tel, port);
                Reply::Attached
            }
        };
        if replies.send((reply, shard.len())).is_err() {
            // Frontend dropped mid-command; nothing left to serve.
            break;
        }
    }
    // Shutdown path: reconcile before the shard (and its ledger) drops,
    // so a frontend that never asked explicitly still gets the silent-
    // corruption accounting folded into the shared telemetry.
    shard.reconcile_faults();
}

/// One port's worker: its channels and join handle.
struct Worker {
    /// `None` once shutdown has begun (dropping the sender is what
    /// tells the worker to exit).
    commands: Option<SyncSender<Command>>,
    replies: Receiver<(Reply, usize)>,
    /// Taken when the worker is joined.
    handle: Cell<Option<JoinHandle<()>>>,
}

/// The executor that runs each port's [`HwScheduler`] on its own OS
/// worker thread — the software analogue of N circuits clocking
/// concurrently.
///
/// * **Nothing shared between workers.** A worker owns its shard's
///   complete scheduler (sorter, packet buffer, rank state), mirroring
///   the hardware, where replicated circuits share no state.
/// * **Bounded channels, one command per port and operation.** Whole
///   buckets and runs cross in one message, so the handoff cost is
///   amortized over the batch. All-ports operations send every worker
///   its command before collecting any reply, so the shards work
///   concurrently.
/// * **Exact occupancy.** Every reply carries the shard's queue length
///   after the command, so the frontend's view of each port's backlog
///   is the shard's own — push-out victims, WRED evictions and
///   parity-dropped packets included.
/// * **Clean shutdown, loud failure.** Dropping the executor closes the
///   command channels, joins every worker, and re-raises any worker
///   panic on the calling thread — a crashed shard is never silent
///   packet loss.
pub struct Threaded {
    workers: Vec<Worker>,
    /// Each shard's queue length, from its latest reply.
    lens: Vec<usize>,
}

impl std::fmt::Debug for Threaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Threaded")
            .field("workers", &self.workers.len())
            .field("lens", &self.lens)
            .finish()
    }
}

impl Threaded {
    /// Sends a command to one worker, converting a closed channel —
    /// a panicked worker — into that panic on this thread.
    fn send(&self, port: usize, cmd: Command) {
        let sender = self.workers[port]
            .commands
            .as_ref()
            .expect("worker channel open until drop");
        if sender.send(cmd).is_err() {
            self.propagate_worker_exit(port);
        }
    }

    /// Receives one worker's reply and the shard's queue length,
    /// converting a closed channel into the worker's panic.
    fn recv(&self, port: usize) -> (Reply, usize) {
        match self.workers[port].replies.recv() {
            Ok(reply) => reply,
            Err(_) => self.propagate_worker_exit(port),
        }
    }

    /// One command to one worker, recording the shard's queue length.
    fn call(&mut self, port: usize, cmd: Command) -> Reply {
        self.send(port, cmd);
        let (reply, len) = self.recv(port);
        self.lens[port] = len;
        reply
    }

    /// Sends port `i` the `i`-th command (skipping `None`s) before
    /// receiving any reply, so the workers run concurrently; returns
    /// the replies with the shards' queue lengths, in port order.
    fn scatter(
        &self,
        commands: impl IntoIterator<Item = Option<Command>>,
    ) -> Vec<Option<(Reply, usize)>> {
        let sent: Vec<bool> = commands
            .into_iter()
            .enumerate()
            .map(|(port, cmd)| cmd.map(|cmd| self.send(port, cmd)).is_some())
            .collect();
        sent.iter()
            .enumerate()
            .map(|(port, &sent)| sent.then(|| self.recv(port)))
            .collect()
    }

    /// [`Threaded::scatter`], recording each replying shard's queue
    /// length.
    fn scatter_mut(
        &mut self,
        commands: impl IntoIterator<Item = Option<Command>>,
    ) -> Vec<Option<Reply>> {
        let replies = self.scatter(commands);
        replies
            .into_iter()
            .zip(&mut self.lens)
            .map(|(reply, len)| {
                reply.map(|(reply, now)| {
                    *len = now;
                    reply
                })
            })
            .collect()
    }

    /// A worker's channel closed early: join it and re-raise its panic
    /// (a worker only exits early by panicking).
    fn propagate_worker_exit(&self, port: usize) -> ! {
        let handle = self.workers[port]
            .handle
            .take()
            .expect("worker joined once");
        match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("worker {port} exited without panic while channels were open"),
        }
    }
}

fn unexpected() -> ! {
    unreachable!("worker replies in command order")
}

impl<B: SortBackend + Send + 'static, P: RankPolicy + Send + 'static> Executor<B, P> for Threaded {
    fn start(shards: Vec<HwScheduler<B, P>>) -> Self {
        let lens = vec![0; shards.len()];
        let workers = shards
            .into_iter()
            .enumerate()
            .map(|(port, shard)| {
                let (cmd_tx, cmd_rx) = sync_channel(CHANNEL_DEPTH);
                let (rep_tx, rep_rx) = sync_channel(CHANNEL_DEPTH);
                let handle = std::thread::Builder::new()
                    .name(format!("shard-{port}"))
                    .spawn(move || worker_loop(shard, port, cmd_rx, rep_tx))
                    .expect("spawn shard worker");
                Worker {
                    commands: Some(cmd_tx),
                    replies: rep_rx,
                    handle: Cell::new(Some(handle)),
                }
            })
            .collect();
        Self { workers, lens }
    }

    fn port_len(&self, port: usize) -> usize {
        self.lens[port]
    }

    fn enqueue(&mut self, port: usize, pkt: Packet) -> Result<(), SchedulerError> {
        match self.call(port, Command::Enqueue(vec![pkt])) {
            Reply::Enqueued(_, None) => Ok(()),
            Reply::Enqueued(_, Some(e)) => Err(e),
            _ => unexpected(),
        }
    }

    fn enqueue_buckets(
        &mut self,
        buckets: Vec<Vec<Packet>>,
    ) -> Vec<(usize, Option<SchedulerError>)> {
        let commands = buckets
            .into_iter()
            .map(|bucket| (!bucket.is_empty()).then(|| Command::Enqueue(bucket)));
        self.scatter_mut(commands)
            .into_iter()
            .map(|reply| match reply {
                None => (0, None),
                Some(Reply::Enqueued(accepted, error)) => (accepted, error),
                Some(_) => unexpected(),
            })
            .collect()
    }

    fn dequeue(&mut self, port: usize) -> Option<(Packet, SojournStamp)> {
        match self.call(port, Command::Dequeue) {
            Reply::Dequeued(served) => served,
            _ => unexpected(),
        }
    }

    fn dequeue_runs(&mut self, max: usize) -> Vec<Run> {
        let commands: Vec<Option<Command>> = self
            .lens
            .iter()
            .map(|&len| (len > 0).then_some(Command::DequeueRun { max }))
            .collect();
        self.scatter_mut(commands)
            .into_iter()
            .map(|reply| match reply {
                None => Run::new(),
                Some(Reply::Run(run)) => run,
                Some(_) => unexpected(),
            })
            .collect()
    }

    fn stats(&self) -> Vec<SchedulerStats> {
        self.scatter(self.workers.iter().map(|_| Some(Command::Stats)))
            .into_iter()
            .map(|reply| match reply {
                Some((Reply::Stats(stats), _)) => *stats,
                _ => unexpected(),
            })
            .collect()
    }

    fn reconcile_faults(&mut self) -> FaultTotals {
        let ports = self.workers.len();
        self.scatter_mut((0..ports).map(|_| Some(Command::ReconcileFaults)))
            .into_iter()
            .map(|reply| match reply {
                Some(Reply::FaultTotals(totals)) => totals,
                _ => unexpected(),
            })
            .fold((0, 0, 0, 0), sum_totals)
    }

    fn extract_flow(&mut self, port: usize, flow: FlowId) -> MigratedFlow {
        match self.call(port, Command::ExtractFlow(flow)) {
            Reply::Extracted(backlog) => backlog,
            _ => unexpected(),
        }
    }

    fn install_flow(
        &mut self,
        port: usize,
        flow: FlowId,
        backlog: MigratedFlow,
    ) -> Result<(), (SchedulerError, MigratedFlow)> {
        match self.call(port, Command::InstallFlow(flow, backlog)) {
            Reply::Installed(outcome) => outcome,
            _ => unexpected(),
        }
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        // One port at a time, so metrics register in port order.
        for port in 0..self.workers.len() {
            match self.call(port, Command::AttachTelemetry(tel.clone())) {
                Reply::Attached => {}
                _ => unexpected(),
            }
        }
    }
}

impl Drop for Threaded {
    /// Joins every worker. A worker that panicked is re-raised here
    /// (unless this thread is already panicking, to avoid an abort
    /// while unwinding).
    fn drop(&mut self) {
        let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
        for worker in &mut self.workers {
            // Closing the command channel is the shutdown signal.
            worker.commands = None;
            if let Some(handle) = worker.handle.take() {
                if let Err(p) = handle.join() {
                    payload.get_or_insert(p);
                }
            }
        }
        if let Some(p) = payload {
            if !std::thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hwsched::SchedulerConfig;
    use crate::shard::{shard_of, ParallelShardedScheduler, ShardError, ShardedScheduler};
    use statesync::{Placement, RebalancerConfig};
    use traffic::{FlowSpec, SizeDist, Time};

    fn flows(n: usize) -> Vec<FlowSpec> {
        (0..n)
            .map(|i| {
                FlowSpec::new(FlowId(i as u32), 1.0 + (i % 3) as f64, 1e6)
                    .size(SizeDist::Fixed(500))
            })
            .collect()
    }

    fn pkt(seq: u64, flow: u32, at: f64, bytes: u32) -> Packet {
        Packet {
            flow: FlowId(flow),
            size_bytes: bytes,
            arrival: Time(at),
            seq,
        }
    }

    #[test]
    fn routes_and_restores_global_ids_like_the_sequential_frontend() {
        let fl = flows(16);
        let mut fe = ParallelShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        let seq = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        assert_eq!(fe.ports(), 4);
        assert_eq!(fe.flows(), 16);
        for f in 0..16u32 {
            assert_eq!(fe.port_of(FlowId(f)), seq.port_of(FlowId(f)));
        }
        assert_eq!(fe.port_of(FlowId(99)), None);
        fe.enqueue(pkt(0, 7, 0.0, 140)).unwrap();
        assert_eq!(fe.len(), 1);
        let (port, out) = fe.dequeue().unwrap();
        assert_eq!(Some(port), seq.port_of(FlowId(7)));
        assert_eq!(out.flow, FlowId(7), "global id restored");
        assert!(fe.is_empty());
    }

    #[test]
    fn batch_and_drain_match_the_sequential_round_robin_exactly() {
        let fl = flows(24);
        let batch: Vec<Packet> = (0..96)
            .map(|i| pkt(i, (i % 24) as u32, i as f64 * 1e-6, 500))
            .collect();

        let mut seq = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        seq.enqueue_batch(&batch).unwrap();
        let mut reference = Vec::new();
        while let Some(served) = seq.dequeue() {
            reference.push(served);
        }

        let mut par = ParallelShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        assert_eq!(par.enqueue_batch(&batch).unwrap(), 96);
        let drained = par.drain();
        assert_eq!(drained, reference, "global round-robin order must match");
    }

    #[test]
    fn dequeue_round_preserves_order_across_rounds() {
        let fl = flows(24);
        let batch: Vec<Packet> = (0..96)
            .map(|i| pkt(i, (i % 24) as u32, i as f64 * 1e-6, 500))
            .collect();
        let mut seq = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        seq.enqueue_batch(&batch).unwrap();
        let mut reference = Vec::new();
        while let Some(served) = seq.dequeue() {
            reference.push(served);
        }

        let mut par = ParallelShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        par.enqueue_batch(&batch).unwrap();
        let mut got = Vec::new();
        loop {
            let round = par.dequeue_round(5);
            if round.is_empty() {
                break;
            }
            got.extend(round);
        }
        // Each flow's packets come out in the same order as sequentially
        // (cross-round the global cursor position can differ from the
        // packet-at-a-time reference, but per-flow WFQ order cannot).
        let per_flow = |served: &[(usize, Packet)]| {
            let mut m: std::collections::HashMap<u32, Vec<u64>> = std::collections::HashMap::new();
            for (_, p) in served {
                m.entry(p.flow.0).or_default().push(p.seq);
            }
            m
        };
        assert_eq!(per_flow(&got), per_flow(&reference));
        assert_eq!(got.len(), reference.len());
    }

    #[test]
    fn drain_stamped_matches_sequential_cycle_stamps() {
        // Same batch through both frontends: each shard executes the
        // identical enqueue/dequeue sequence, so the per-port stamped
        // streams must be identical — the property that makes parallel
        // latency attribution trustworthy.
        let fl = flows(24);
        let batch: Vec<Packet> = (0..96)
            .map(|i| pkt(i, (i % 24) as u32, i as f64 * 1e-6, 500))
            .collect();
        let mut seq = ShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        seq.enqueue_batch(&batch).unwrap();
        let mut seq_runs: Vec<Vec<(u64, SojournStamp)>> = vec![Vec::new(); 4];
        for (port, run) in seq_runs.iter_mut().enumerate() {
            while let Some((p, st)) = seq.dequeue_port_stamped(port) {
                run.push((p.seq, st));
            }
        }
        let mut par = ParallelShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        par.enqueue_batch(&batch).unwrap();
        let mut par_runs: Vec<Vec<(u64, SojournStamp)>> = vec![Vec::new(); 4];
        for (port, p, st) in par.drain_stamped() {
            assert!(st.dequeued > st.enqueued);
            par_runs[port].push((p.seq, st));
        }
        assert_eq!(par_runs, seq_runs);
    }

    #[test]
    fn batch_errors_are_reported_with_accepted_counts() {
        // Unknown flow: validated up front, nothing enqueued.
        let mut fe = ParallelShardedScheduler::new(&flows(4), 1e9, 2, SchedulerConfig::default());
        let batch = [pkt(0, 0, 0.0, 140), pkt(1, 99, 0.0, 140)];
        let err = fe.enqueue_batch(&batch).unwrap_err();
        assert_eq!(err.accepted, 0);
        assert!(matches!(
            err.error,
            ShardError::UnknownFlow { flow: 99, .. }
        ));
        assert_eq!(fe.len(), 0);
        // Shard refusal: the failing shard stops, accepted count reported.
        let small = SchedulerConfig {
            capacity: 2,
            ..SchedulerConfig::default()
        };
        let mut fe = ParallelShardedScheduler::new(&flows(4), 1e9, 1, small);
        let batch: Vec<Packet> = (0..4).map(|i| pkt(i, 0, 0.0, 140)).collect();
        let err = fe.enqueue_batch(&batch).unwrap_err();
        assert_eq!(err.accepted, 2);
        assert!(matches!(err.error, ShardError::Port { port: 0, .. }));
        assert_eq!(fe.len(), 2, "admitted packets stay enqueued");
    }

    #[test]
    fn stats_aggregate_matches_traffic() {
        let fl = flows(16);
        let mut fe = ParallelShardedScheduler::new(&fl, 1e9, 4, SchedulerConfig::default());
        let batch: Vec<Packet> = (0..40).map(|i| pkt(i, (i % 16) as u32, 0.0, 500)).collect();
        fe.enqueue_batch(&batch).unwrap();
        let peak_now = fe.len();
        fe.drain();
        let stats = fe.stats();
        assert_eq!(stats.per_port.len(), 4);
        assert_eq!(stats.aggregate.enqueued, 40);
        assert_eq!(stats.aggregate.dequeued, 40);
        assert_eq!(stats.aggregate.buffer.peak, peak_now);
        assert!(stats.modeled_packets_per_second(143.2e6) > 0.0);
    }

    #[test]
    fn per_port_rates_flow_through() {
        let fl = flows(16);
        let fe =
            ParallelShardedScheduler::with_port_rates(&fl, &[4e9, 1e9], SchedulerConfig::default());
        assert_eq!(fe.ports(), 2);
        assert_eq!(fe.port_rate(0), 4e9);
        assert_eq!(fe.port_rate(1), 1e9);
    }

    #[test]
    fn migration_matches_the_sequential_frontend_departure_for_departure() {
        let fl = flows(8);
        let batch: Vec<Packet> = (0..48)
            .map(|i| pkt(i, (i % 8) as u32, i as f64 * 1e-6, 500))
            .collect();
        let flow = FlowId(0);
        let mut seq = ShardedScheduler::with_placement(
            &fl,
            1e9,
            2,
            SchedulerConfig::default(),
            Placement::Dynamic,
        );
        let mut par = ParallelShardedScheduler::with_placement(
            &fl,
            1e9,
            2,
            SchedulerConfig::default(),
            Placement::Dynamic,
        );
        let to = 1 - seq.port_of(flow).unwrap();
        seq.enqueue_batch(&batch).unwrap();
        par.enqueue_batch(&batch).unwrap();
        assert_eq!(
            seq.migrate_flow(flow, to).unwrap(),
            par.migrate_flow(flow, to).unwrap(),
            "both frontends move the same backlog"
        );
        assert_eq!(par.port_of(flow), Some(to));
        assert_eq!(par.migrations(), 1);
        // Post-migration arrivals chase the flow to its new port.
        let late: Vec<Packet> = (48..56).map(|i| pkt(i, 0, i as f64 * 1e-6, 500)).collect();
        seq.enqueue_batch(&late).unwrap();
        par.enqueue_batch(&late).unwrap();
        let mut expected = Vec::new();
        while let Some((port, p)) = seq.dequeue() {
            expected.push((port, p.flow, p.seq));
        }
        let got: Vec<_> = par
            .drain()
            .into_iter()
            .map(|(port, p)| (port, p.flow, p.seq))
            .collect();
        assert_eq!(got, expected, "departure sequences diverged");
        let stats = par.stats();
        assert_eq!(stats.aggregate.migrated_out, stats.aggregate.migrated_in);
        assert!(stats.aggregate.migrated_out > 0);
    }

    #[test]
    fn parallel_rebalancer_drains_everything_it_admitted() {
        let fl = flows(8);
        let mut fe = ParallelShardedScheduler::with_placement(
            &fl,
            1e9,
            2,
            SchedulerConfig::default(),
            Placement::Dynamic,
        )
        .with_rebalancer(RebalancerConfig::default());
        let hot: Vec<u32> = (0..8u32).filter(|&f| shard_of(FlowId(f), 2) == 0).collect();
        let mut admitted = 0usize;
        let mut migrated = None;
        let mut seq = 0;
        for _round in 0..8 {
            let mut batch = Vec::new();
            for _ in 0..16 {
                for &f in &hot {
                    batch.push(pkt(seq, f, 0.0, 500));
                    seq += 1;
                }
            }
            admitted += fe.enqueue_batch(&batch).unwrap();
            if let Some(m) = fe.maybe_rebalance() {
                migrated = Some(m);
                break;
            }
        }
        let (flow, from, to) = migrated.expect("skewed load trips the rebalancer");
        assert_eq!((from, to), (0, 1));
        assert_eq!(fe.port_of(flow), Some(1));
        // Every admitted packet is still serviceable, per-flow order
        // intact.
        let served = fe.drain();
        assert_eq!(served.len(), admitted);
        let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for (_, p) in served {
            if let Some(prev) = last.insert(p.flow.0, p.seq) {
                assert!(prev < p.seq, "flow {} reordered", p.flow.0);
            }
        }
    }

    #[test]
    fn worker_panic_is_propagated_not_swallowed() {
        // Force a worker panic by violating an internal invariant:
        // HwScheduler::dequeue on a healthy shard never panics, so use a
        // poisoned thread instead — enqueue a packet whose local id is
        // valid but whose admission will be fine, then panic the worker
        // by dropping the frontend while a worker is mid-panic is hard
        // to stage deterministically. Instead, check the machinery
        // directly: a frontend whose worker has already exited
        // re-raises on the next use.
        let fl = flows(4);
        let mut fe = ParallelShardedScheduler::new(&fl, 1e9, 1, SchedulerConfig::default());
        // Simulate a dead worker: close its reply side by replacing the
        // worker wholesale with one whose thread panics immediately.
        let (cmd_tx, _cmd_rx) = sync_channel::<Command>(CHANNEL_DEPTH);
        let (rep_tx, rep_rx) = sync_channel::<(Reply, usize)>(CHANNEL_DEPTH);
        let handle = std::thread::Builder::new()
            .name("shard-poison".into())
            .spawn(move || {
                let _hold = rep_tx; // dropped on panic
                panic!("shard worker poisoned");
            })
            .expect("spawn");
        // Give the poisoned worker time to die, then swap it in.
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        let old = std::mem::replace(
            &mut fe.exec.workers[0],
            Worker {
                commands: Some(cmd_tx),
                replies: rep_rx,
                handle: Cell::new(Some(handle)),
            },
        );
        drop(old.commands);
        if let Some(h) = old.handle.take() {
            h.join().expect("original worker exits cleanly");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fe.dequeue_port(0);
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("unexpected payload");
        assert_eq!(msg, "shard worker poisoned");
        // Drop of `fe` must not re-panic (the handle was already joined).
    }
}
