//! What the serving workloads share: the operation sequence, the
//! closed-loop runner, the end-to-end metrics, set-up repetition, failure
//! accounting and the output checks.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client;
use crate::stats::{median, quantile_sorted, StealMeter};
use crate::sut;

/// Client connections (and client threads) driving the server; the host
/// the benchmark was sized on has two cores.
pub const CLIENTS: usize = 2;
/// Items requested per timed `/recommend`.
pub const TOP_K: usize = 20;
/// Users in the pinned sample whose served rankings are checked.
pub const CHECK_USERS: usize = 16;
/// Undisturbed set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups a run may try to collect them.
pub const MAX_SETUPS: usize = 5;

/// One operation of a workload's seeded sequence.
#[derive(Clone, Debug)]
pub enum Op {
    Read(u32),
    /// `POST /update` with this body.
    Append(String),
    /// `POST /update {"refresh":1}`.
    Refresh,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered 503: admission control refused it.
    Shed,
    /// Any other status, a timeout or a broken connection.
    Failed,
}

impl Outcome {
    pub fn of(reply: &std::io::Result<client::Reply>) -> Self {
        match reply {
            Ok(r) if r.status == 200 => Outcome::Ok,
            Ok(r) if r.status == 503 => Outcome::Shed,
            _ => Outcome::Failed,
        }
    }
}

/// One completed operation of a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub read: bool,
    pub outcome: Outcome,
    /// Completion time, seconds after the phase began.
    pub end_s: f64,
    pub latency_ms: f64,
}

/// Operations attempted, and how they ended.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
}

impl Tally {
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
    }

    pub fn of_records(records: &[Record]) -> Self {
        let mut t = Tally::default();
        for r in records {
            t.add(r.outcome);
        }
        t
    }

    /// Failed operations as the result line counts them: a 503 is a
    /// non-200, so shed operations count too.
    pub fn failed_total(&self) -> u64 {
        self.failed + self.shed
    }
}

/// Sends `op` over HTTP; returns its outcome.
pub fn exec_http(addr: SocketAddr, op: &Op) -> Outcome {
    let reply = match op {
        Op::Read(user) => client::recommend(addr, *user, TOP_K),
        Op::Append(body) => client::send(addr, "POST", "/update", body),
        Op::Refresh => client::send(addr, "POST", "/update", "{\"refresh\":1}"),
    };
    Outcome::of(&reply)
}

/// Share of the machine's CPU capacity lost to steal above which a
/// one-second slice of a timed phase, or a set-up, counts as disturbed by
/// the host and is set aside.
pub const STEAL_LIMIT: f64 = 0.05;
/// A timed phase gains one second per disturbed slice, up to this share of
/// its nominal length.
pub const MAX_EXTENSION: f64 = 1.0;
/// Slices a phase's statistics use at least: all undisturbed slices, and
/// when there are fewer than this, the ones with the least steal; the
/// header then says so (`phase_fallback`).
pub const MIN_CLEAN_SLICES: usize = 5;

/// A finished closed-loop phase.
pub struct Loop<C> {
    pub records: Vec<Record>,
    pub states: Vec<C>,
    /// Steal share of each one-second slice, in order.
    pub slice_steal: Vec<f64>,
}

/// Runs a closed loop of `CLIENTS` clients for `seconds` one-second slices:
/// each client takes the next operation of `ops` (a shared cursor starting
/// at `*cursor`, so the sequence is consumed in order by count) as soon as
/// its previous one completes. `exec` runs one operation with the client's
/// own state. A monitor measures the steal of every slice and extends the
/// phase by one slice per disturbed slice, up to `MAX_EXTENSION`.
pub fn closed_loop<C: Send>(
    ops: &[Op],
    cursor: &mut usize,
    seconds: f64,
    make: impl Fn() -> C + Sync,
    exec: impl Fn(&mut C, &Op) -> Outcome + Sync,
) -> Loop<C> {
    let nominal = (seconds.round() as usize).max(1);
    let cap = nominal + (nominal as f64 * MAX_EXTENSION) as usize;
    let next = AtomicUsize::new(*cursor);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (per_client, slice_steal) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut steal = Vec::new();
            let mut slices = nominal;
            while steal.len() < slices {
                let meter = StealMeter::start();
                let boundary = t0 + Duration::from_secs(steal.len() as u64 + 1);
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                let share = meter.share();
                if share > STEAL_LIMIT && slices < cap {
                    slices += 1;
                }
                steal.push(share);
            }
            stop.store(true, Ordering::SeqCst);
            steal
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make();
                    let mut records = Vec::with_capacity(ops.len() / CLIENTS);
                    while !stop.load(Ordering::SeqCst) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = &ops[i % ops.len()];
                        let started = Instant::now();
                        let outcome = exec(&mut state, op);
                        let ended = Instant::now();
                        records.push(Record {
                            read: matches!(op, Op::Read(_)),
                            outcome,
                            end_s: (ended - t0).as_secs_f64(),
                            latency_ms: (ended - started).as_secs_f64() * 1e3,
                        });
                    }
                    (records, state)
                })
            })
            .collect();
        let per_client: Vec<(Vec<Record>, C)> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        (per_client, monitor.join().expect("steal monitor"))
    });
    *cursor = next.load(Ordering::Relaxed);
    let mut records = Vec::new();
    let mut states = Vec::new();
    for (r, s) in per_client {
        records.extend(r);
        states.push(s);
    }
    Loop { records, states, slice_steal }
}

/// End-to-end figures of one timed phase, from its undisturbed slices.
pub struct Phase {
    /// Median over the slices of each slice's completion rate of
    /// successful operations, per second.
    pub throughput: f64,
    /// Slices measured, and those set aside as disturbed by the host.
    pub slices: usize,
    pub disturbed: usize,
    /// Fewer than `MIN_CLEAN_SLICES` slices were undisturbed, so the
    /// figures come from the `MIN_CLEAN_SLICES` slices with the least steal.
    pub fallback: bool,
    /// Mean steal share over all slices.
    pub steal: f64,
    /// Successful reads' latencies, ascending, in ms.
    pub read_latencies: Vec<f64>,
}

impl Phase {
    /// Statistics over the slices whose steal is within `STEAL_LIMIT`, or,
    /// when fewer than `MIN_CLEAN_SLICES` are, over the `MIN_CLEAN_SLICES`
    /// slices with the least steal.
    pub fn of<C>(run: &Loop<C>) -> Self {
        let steal = &run.slice_steal;
        let n = steal.len();
        let n_clean = steal.iter().filter(|&&s| s <= STEAL_LIMIT).count();
        let fallback = n_clean < MIN_CLEAN_SLICES;
        let mut by_steal: Vec<usize> = (0..n).collect();
        by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        let mut used = vec![false; n];
        for &k in by_steal.iter().take(n_clean.max(MIN_CLEAN_SLICES)) {
            used[k] = true;
        }
        let use_slice = |k: usize| k < n && used[k];
        let mut ends: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut reads: Vec<&Record> = Vec::new();
        for r in &run.records {
            let k = r.end_s as usize;
            if r.outcome != Outcome::Ok || !use_slice(k) {
                continue;
            }
            ends[k].push(r.end_s);
            if r.read {
                reads.push(r);
            }
        }
        // Operations completed per second between a slice's first and last
        // completion: a continuous estimate, unlike a count per slice.
        let rates: Vec<f64> = ends
            .iter()
            .filter_map(|e| {
                let (first, last) =
                    e.iter().fold((f64::MAX, f64::MIN), |(a, b), &t| (a.min(t), b.max(t)));
                (e.len() >= 2 && last > first).then(|| (e.len() - 1) as f64 / (last - first))
            })
            .collect();
        let mut read_latencies: Vec<f64> = reads.iter().map(|r| r.latency_ms).collect();
        read_latencies.sort_by(f64::total_cmp);
        Self {
            throughput: median(&rates),
            slices: n,
            disturbed: n - n_clean,
            fallback,
            steal: run.slice_steal.iter().sum::<f64>() / n.max(1) as f64,
            read_latencies,
        }
    }

    /// The `q` quantile of the successful reads' latencies, in ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile_sorted(&self.read_latencies, q)
    }
}

/// One timed set-up: its seconds and the steal share while it ran.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub secs: f64,
    pub steal: f64,
}

impl SetupTime {
    pub fn disturbed(&self) -> bool {
        self.steal > STEAL_LIMIT
    }
}

/// Times one set-up of the live system; the build also reports the
/// requests of its warm pass.
pub fn timed_setup<T>(build: &mut impl FnMut() -> (T, Tally)) -> (T, Tally, SetupTime) {
    let meter = StealMeter::start();
    let t = Instant::now();
    let (live, warm) = build();
    let secs = t.elapsed().as_secs_f64();
    (live, warm, SetupTime { secs, steal: meter.share() })
}

/// Times further set-ups after the measured phases, each torn down before
/// the next, until `SETUP_REPS` of them (`first` included) were not
/// disturbed by the host or `MAX_SETUPS` ran. They run after the
/// measured phases so that the peak RSS read at the end of those phases is
/// that of one set-up.
pub fn more_setups<T>(
    first: SetupTime,
    tally: &mut Tally,
    build: &mut impl FnMut() -> (T, Tally),
) -> Vec<SetupTime> {
    let mut times = vec![first];
    let clean = |times: &[SetupTime]| times.iter().filter(|t| !t.disturbed()).count();
    while clean(&times) < SETUP_REPS && times.len() < MAX_SETUPS {
        let (live, warm, time) = timed_setup(build);
        drop(live);
        tally.merge(warm);
        times.push(time);
    }
    times
}

/// `setup_s`: the median of the `SETUP_REPS` set-ups with the least steal
/// (the undisturbed ones, when `more_setups` found enough).
pub fn setup_seconds(times: &[SetupTime]) -> f64 {
    let mut by_steal = times.to_vec();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    median(&by_steal.iter().take(SETUP_REPS).map(|t| t.secs).collect::<Vec<_>>())
}

/// Requests every user of `users` once, over `CLIENTS` connections.
pub fn warm_pass(addr: SocketAddr, users: &[u32]) -> Tally {
    let ops: Vec<Op> = users.iter().map(|&u| Op::Read(u)).collect();
    let next = AtomicUsize::new(0);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut t = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        t.add(exec_http(addr, op));
                    }
                    t
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up client")).collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    total
}

/// Result of the output checks: comparisons made and mismatches found.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.mismatches += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Served top-`TOP_K` of each user must equal `reference`'s offline
/// ranking, item for item and score bit for bit.
pub fn check_rankings(
    checks: &mut Checks,
    addr: SocketAddr,
    reference: &dyn sut::Service,
    users: &[u32],
) {
    for &u in users {
        let served = client::recommend(addr, u, TOP_K)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| client::parse_items(&r.body));
        let offline = sut::offline_top_k(reference, u, TOP_K);
        let same = served.as_ref().is_some_and(|s| {
            s.len() == offline.len()
                && s.iter().zip(&offline).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        });
        checks.expect(same, || format!("user {u}: served {served:?} != offline {offline:?}"));
    }
}

/// Recall@20 and NDCG@20 of the served rankings on the held-out test
/// users (train items filtered out), which must equal `evaluate` on the
/// same service. Returns the served figures.
pub fn check_quality(
    checks: &mut Checks,
    addr: SocketAddr,
    data: &sut::Lastfm,
    service: &dyn sut::Service,
) -> (f64, f64) {
    let mut test: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(u, i) in &data.split.test {
        test.entry(u.0).or_default().insert(i.0);
    }
    let (mut recall_sum, mut ndcg_sum) = (0.0f64, 0.0f64);
    for (u, items) in &test {
        let train = &data.train_items[*u as usize];
        let served = client::recommend(addr, *u, TOP_K + train.len())
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| client::parse_items(&r.body));
        checks.expect(served.is_some(), || format!("user {u}: no ranking served"));
        let ranked: Vec<u32> = served
            .unwrap_or_default()
            .into_iter()
            .map(|(i, _)| i)
            .filter(|i| !train.contains(i))
            .take(TOP_K)
            .collect();
        let items: Vec<u32> = items.iter().copied().collect();
        let (r, n) = sut::ranking_quality(&ranked, &items, TOP_K);
        recall_sum += r;
        ndcg_sum += n;
    }
    let served = (recall_sum / test.len() as f64, ndcg_sum / test.len() as f64);
    let offline = sut::evaluate(service, &data.split);
    checks.expect(served == offline, || {
        format!("served recall/ndcg {served:?} != evaluate {offline:?}")
    });
    served
}

/// A seeded sample of `n` distinct users from `pool`, for the checks.
pub fn pinned_sample(pool: &[u32], n: usize, seed: u64) -> Vec<u32> {
    let mut rng = crate::stats::SplitMix64::new(seed ^ 0xC4EC_4ED0);
    let mut picked: Vec<u32> = Vec::with_capacity(n);
    while picked.len() < n.min(pool.len()) {
        let u = pool[rng.below(pool.len() as u32) as usize];
        if !picked.contains(&u) {
            picked.push(u);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(slice_steal: Vec<f64>) -> Loop<()> {
        // Two successful reads per slice, 0.4 s apart.
        let records = (0..slice_steal.len())
            .flat_map(|k| [0.2, 0.6].map(|f| (k as f64 + f, k as f64 + 1.0)))
            .map(|(end_s, latency_ms)| Record {
                read: true,
                outcome: Outcome::Ok,
                end_s,
                latency_ms,
            })
            .collect();
        Loop { records, states: Vec::new(), slice_steal }
    }

    #[test]
    fn a_phase_leaves_disturbed_slices_out() {
        let mut steal = vec![0.0; 6];
        steal[2] = 0.5;
        let phase = Phase::of(&run(steal));
        assert_eq!((phase.slices, phase.disturbed, phase.fallback), (6, 1, false));
        assert!((phase.throughput - 2.5).abs() < 1e-9);
        assert_eq!(phase.read_latencies.len(), 10);
        assert!(!phase.read_latencies.contains(&3.0));
    }

    #[test]
    fn a_phase_with_too_few_undisturbed_slices_uses_its_least_disturbed_ones() {
        let steal: Vec<f64> = (0..12).map(|k| 0.06 + 0.01 * ((k * 7) % 12) as f64).collect();
        let phase = Phase::of(&run(steal.clone()));
        assert!(phase.fallback);
        assert_eq!(phase.disturbed, 12);
        // The five slices with the least steal; slice k's latency is k + 1.
        let mut expected: Vec<f64> =
            (0..12).filter(|&k| steal[k] < 0.105).flat_map(|k| [k as f64 + 1.0; 2]).collect();
        expected.sort_by(f64::total_cmp);
        assert_eq!(phase.read_latencies, expected);
        assert!((phase.throughput - 2.5).abs() < 1e-9);
    }

    #[test]
    fn setup_time_is_the_median_of_the_least_disturbed_setups() {
        let t = |secs, steal| SetupTime { secs, steal };
        // Three undisturbed set-ups among five: their median.
        let times = [t(2.0, 0.2), t(1.0, 0.0), t(1.2, 0.01), t(3.0, 0.3), t(1.1, 0.02)];
        assert_eq!(setup_seconds(&times), 1.1);
        // None undisturbed: the three with the least steal.
        let times = [t(2.0, 0.2), t(1.5, 0.1), t(1.4, 0.09), t(3.0, 0.3), t(1.6, 0.12)];
        assert_eq!(setup_seconds(&times), 1.5);
    }

    #[test]
    fn an_empty_phase_has_no_figures() {
        let empty = Phase::of(&run(Vec::new()));
        assert!(empty.throughput.is_nan() && empty.latency_ms(0.9).is_nan());
    }
}
