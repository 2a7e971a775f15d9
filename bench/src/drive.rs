//! The generator loop of one connection: keeps the workload's windows full,
//! sends paced requests when they fall due, checks every reply against the
//! oracle and files its latency under the slice it completed in.

use crate::gen::{request_of, Class, ConnGen, Draw, Mix, Workload};
use crate::oracle::ConnOracle;
use crate::procfs::thread_cpu_ns;
use crate::transport::{sleep_until, Arrival, Transport};
use rewind_net::protocol::Response;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// The host reference: a fixed piece of work that never touches the program,
/// run by every generator thread every [`HostRef::PERIOD`] and timed in
/// thread CPU time. What it costs says how fast this host's CPUs are *while
/// the slice is being measured*: the sandbox's virtual CPUs run up to a half
/// slower for seconds at a time (other tenants), and everything the
/// benchmark times slows with them. `run_phase` divides that out.
///
/// The work is socket round trips on a pair the thread owns both ends of:
/// system-call entry and exit, socket code and copies — what the measured
/// path is made of, and what slows most when the host does (a spin loop
/// tracks it half as well). A sample is the cheapest of three batches of
/// trips, after an untimed one: a thread that just woke has its caches warm
/// before the clock starts, and an interrupt lands in one batch at most —
/// which is also what makes a sample cost the same whether the generator
/// around it never sleeps (`read_only`) or mostly does (`txn_cross`).
pub struct HostRef {
    near: UnixStream,
    far: UnixStream,
    next: Instant,
}

impl HostRef {
    const PERIOD: Duration = Duration::from_millis(2);
    const BATCH_TRIPS: usize = 4;
    /// What a sample costs on this sandbox while its CPUs are undisturbed:
    /// 3 540-3 690 ns next to every one of the six workloads. A slice whose
    /// samples cost more ran on a host that much slower, and the end-to-end
    /// timings are divided by the ratio: they read as on a host at this
    /// speed. Frozen with the benchmark; on another machine every timing
    /// shifts by one constant factor.
    pub const UNDISTURBED_NS: f64 = 3600.0;

    fn new() -> io::Result<HostRef> {
        let (near, far) = UnixStream::pair()?;
        Ok(HostRef {
            near,
            far,
            next: Instant::now(),
        })
    }

    /// Thread CPU nanoseconds of one batch of round trips.
    fn batch(&mut self) -> io::Result<u64> {
        let mut frame = [0x5au8; 64];
        let t0 = thread_cpu_ns();
        for _ in 0..Self::BATCH_TRIPS {
            self.near.write_all(&frame)?;
            self.far.read_exact(&mut frame)?;
        }
        Ok(thread_cpu_ns() - t0)
    }

    /// One sample, in thread CPU nanoseconds.
    fn sample(&mut self) -> io::Result<u32> {
        self.batch()?;
        let mut best = u64::MAX;
        for _ in 0..3 {
            best = best.min(self.batch()?);
        }
        Ok(u32::try_from(best).unwrap_or(u32::MAX))
    }

    /// A sample, if one is due at `now`.
    fn sample_if_due(&mut self, now: Instant) -> io::Result<Option<u32>> {
        if now < self.next {
            return Ok(None);
        }
        self.next = now + Self::PERIOD;
        self.sample().map(Some)
    }
}

/// How a phase is cut into slices.
#[derive(Debug, Clone, Copy)]
pub enum Slicing {
    /// `n` slices of `len`, the first starting at `from`; completions before
    /// `from` are warm-up and dropped. Issuing stops at `from + n * len`.
    ByTime {
        from: Instant,
        len: Duration,
        n: usize,
    },
    /// A finite stream of `total` operations cut into `n` equal runs of
    /// completions; issuing stops when the stream is exhausted.
    ByCount { total: usize, n: usize },
}

/// What the state of one connection carries from phase to phase.
pub struct ConnState {
    pub workload: Workload,
    pub gen: ConnGen,
    pub oracle: ConnOracle,
    /// Requests sent.
    pub attempted: u64,
    /// Requests lost to the transport (a BUSY, ERR or wrong reply is an
    /// oracle miss and counted there).
    pub failed: u64,
}

/// A harness-side span: one request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub class: Class,
    /// Ordinal of the request within its class on this connection — the same
    /// ordinal over the wire and in the in-process replay is the same
    /// generated request, which is how a `store_call` span names its parent.
    pub ordinal: u32,
    pub start: Instant,
    pub end: Instant,
}

/// How many spans one connection keeps per phase.
pub const SPAN_CAP: usize = 20_000;

#[derive(Default)]
pub struct PhaseResult {
    /// Latency samples in ns: `[class][slice]`.
    pub samples: [Vec<Vec<u32>>; 4],
    /// Completions per slice, all classes.
    pub done_per_slice: Vec<u64>,
    /// `ByCount` only: when each slice's last completion arrived.
    pub slice_end: Vec<Option<Instant>>,
    /// Every completion of the phase, warm-up and drain tail included — the
    /// denominator for counter deltas taken around the phase.
    pub done_total: u64,
    /// Host reference samples per slice, ns.
    pub host_ref: Vec<Vec<u32>>,
    /// How late each paced request went out, ns.
    pub lag: Vec<u32>,
    pub spans: Vec<Span>,
    pub began: Option<Instant>,
    pub ended: Option<Instant>,
}

struct Pending {
    draw: Draw,
    seqs: [u32; 2],
    floor: u32,
    /// Send instant, or the due instant for a paced request.
    from: Instant,
    ordinal: u32,
}

/// The requests in flight on one connection; a request's wire id is its
/// slot here.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Pending>>,
    free: Vec<usize>,
    /// Requests sent so far, per class.
    ordinals: [u32; 4],
}

impl InFlight {
    /// Draws, registers and sends one request of `class`, timed from `from`
    /// (now, if `None`); false when the class's stream has run dry.
    fn send(
        &mut self,
        state: &mut ConnState,
        transport: &mut dyn Transport,
        class: Class,
        from: Option<Instant>,
    ) -> io::Result<bool> {
        let Some(draw) = state.gen.draw(class) else {
            return Ok(false);
        };
        let (seqs, floor) = match draw {
            Draw::Get { key } => ([0, 0], state.oracle.floor(key)),
            Draw::Scan { .. } => ([0, 0], 0),
            Draw::Put { key } => ([state.oracle.issue(key), 0], 0),
            Draw::Txn { a, b } => ([state.oracle.issue(a), state.oracle.issue(b)], 0),
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let ordinal = self.ordinals[class as usize];
        self.ordinals[class as usize] += 1;
        self.slots[slot] = Some(Pending {
            draw,
            seqs,
            floor,
            from: from.unwrap_or_else(Instant::now),
            ordinal,
        });
        state.attempted += 1;
        transport.send(slot as u64, request_of(state.workload, draw, seqs))?;
        Ok(true)
    }

    /// The request a response with `id` answers, if there is one.
    fn take(&mut self, id: u64) -> Option<Pending> {
        let p = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id as usize);
        Some(p)
    }
}

fn sat_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Runs one phase on one connection and returns once every request it sent
/// has been answered. An `Err` is a transport failure; the caller counts
/// whatever was still in flight as failed.
pub fn drive(
    state: &mut ConnState,
    transport: &mut dyn Transport,
    mix: Mix,
    slicing: Slicing,
    keep_spans: bool,
) -> io::Result<PhaseResult> {
    let n_slices = match slicing {
        Slicing::ByTime { n, .. } | Slicing::ByCount { n, .. } => n,
    };
    let mut res = PhaseResult {
        samples: std::array::from_fn(|_| vec![Vec::new(); n_slices]),
        done_per_slice: vec![0; n_slices],
        slice_end: vec![None; n_slices],
        host_ref: vec![Vec::new(); n_slices],
        began: Some(Instant::now()),
        ..PhaseResult::default()
    };
    let stop_at = match slicing {
        Slicing::ByTime { from, len, n } => Some(from + len * n as u32),
        Slicing::ByCount { .. } => None,
    };
    let period = (mix.get_pace_hz > 0).then(|| Duration::from_secs(1) / mix.get_pace_hz);
    // A completed GET is either paced or windowed; the loop cannot tell two
    // kinds apart on one connection.
    assert!(period.is_none() || mix.window[Class::Get as usize] == 0);
    let mut next_due = Instant::now();

    // The slice an event at `at` falls into, `done` completions in.
    let slice_of = |at: Instant, done: u64| match slicing {
        Slicing::ByTime { from, len, n } => at
            .checked_duration_since(from)
            .map(|d| (d.as_nanos() / len.as_nanos()) as usize)
            .filter(|s| *s < n),
        Slicing::ByCount { total, n } => Some((done as usize * n / total.max(1)).min(n - 1)),
    };
    let mut host = HostRef::new()?;

    let mut flying = InFlight::default();
    let mut inflight = [0usize; 4];
    let mut in_flight_total = 0usize;
    let mut exhausted = false;

    loop {
        let now = Instant::now();
        if let Some(ns) = host.sample_if_due(now)? {
            if let Some(s) = slice_of(now, res.done_total) {
                res.host_ref[s].push(ns);
            }
        }
        let issuing = !exhausted && stop_at.is_none_or(|t| now < t);
        if issuing {
            for class in Class::ALL {
                while inflight[class as usize] < mix.window[class as usize] {
                    if !flying.send(state, transport, class, None)? {
                        exhausted = true;
                        break;
                    }
                    inflight[class as usize] += 1;
                    in_flight_total += 1;
                }
            }
            if let Some(period) = period {
                while next_due <= now {
                    flying.send(state, transport, Class::Get, Some(next_due))?;
                    res.lag.push(sat_ns(now - next_due));
                    in_flight_total += 1;
                    next_due += period;
                }
            }
        }
        if in_flight_total == 0 {
            if !issuing {
                break;
            }
            // Only a paced stream can be idle while still issuing.
            sleep_until(next_due);
            continue;
        }
        let until = (issuing && period.is_some()).then_some(next_due);
        let Some(Arrival { id, resp, at }) = transport.recv(until)? else {
            continue;
        };
        let Some(p) = flying.take(id) else {
            state.failed += 1;
            continue;
        };
        let class = p.draw.class();
        in_flight_total -= 1;
        if !(class == Class::Get && period.is_some()) {
            inflight[class as usize] -= 1;
        }
        match (p.draw, resp) {
            (Draw::Get { key }, Response::Value(v)) => state.oracle.check_get(key, p.floor, v),
            (Draw::Scan { low }, Response::Entries(e)) => state.oracle.check_scan(low, &e),
            (Draw::Put { key }, Response::Done) => state.oracle.ack(key, p.seqs[0]),
            (Draw::Txn { a, b }, Response::Applied(2)) => {
                state.oracle.ack(a, p.seqs[0]);
                state.oracle.ack(b, p.seqs[1]);
            }
            (draw, other) => {
                state.oracle.miss(|| format!("{draw:?} answered {other:?}"));
            }
        }
        if let Some(s) = slice_of(at, res.done_total) {
            res.samples[class as usize][s].push(sat_ns(at.saturating_duration_since(p.from)));
            res.done_per_slice[s] += 1;
            res.slice_end[s] = Some(at);
            if keep_spans && res.spans.len() < SPAN_CAP {
                res.spans.push(Span {
                    class,
                    ordinal: p.ordinal,
                    start: p.from,
                    end: at,
                });
            }
        }
        res.done_total += 1;
    }
    res.ended = Some(Instant::now());
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::fake_shard_table;
    use rewind_net::protocol::Request;
    use std::collections::VecDeque;

    /// A stand-in server that answers GETs in order, `service` apart — and
    /// once, at `stall_at`, blocks the sender for `stall` the way a full
    /// socket does when the server stops reading.
    struct StalledServer {
        queue: VecDeque<(u64, Instant)>,
        busy_until: Instant,
        service: Duration,
        stall_at: Instant,
        stall: Duration,
        stalled: bool,
    }

    impl Transport for StalledServer {
        fn send(&mut self, id: u64, req: Request) -> io::Result<()> {
            assert!(matches!(req, Request::Get { .. }));
            if !self.stalled && Instant::now() >= self.stall_at {
                self.stalled = true;
                std::thread::sleep(self.stall);
            }
            self.busy_until = self.busy_until.max(Instant::now()) + self.service;
            self.queue.push_back((id, self.busy_until));
            Ok(())
        }

        fn recv(&mut self, until: Option<Instant>) -> io::Result<Option<Arrival>> {
            let ready = self.queue.front().map(|(_, ready)| *ready);
            match (ready, until) {
                (Some(ready), until) if until.is_none_or(|u| ready <= u) => {
                    sleep_until(ready);
                    let (id, _) = self.queue.pop_front().unwrap();
                    Ok(Some(Arrival {
                        id,
                        resp: Response::Value(None),
                        at: Instant::now(),
                    }))
                }
                (_, until) => {
                    sleep_until(until.expect("nothing due and nothing in flight"));
                    Ok(None)
                }
            }
        }
    }

    #[test]
    fn paced_requests_are_timed_from_their_due_instant() {
        // 1000 GET/s against a server that blocks the generator for 100 ms
        // in the middle of a 400 ms window. Timed from the send instant the
        // stall would hurt only the one request caught in it; timed from the
        // due instant it hurts every request that fell due meanwhile: ~100
        // of them, waiting 100 ms down to nothing.
        let start = Instant::now() + Duration::from_millis(5);
        let mut server = StalledServer {
            queue: VecDeque::new(),
            busy_until: start,
            service: Duration::from_micros(20),
            stall_at: start + Duration::from_millis(150),
            stall: Duration::from_millis(100),
            stalled: false,
        };
        // `restart` starts from an empty store, so "absent" is a correct
        // answer to every GET.
        let mut state = ConnState {
            workload: Workload::Restart {
                keys: crate::gen::KEYS,
            },
            gen: ConnGen::new(Workload::MixedRw, 1, 0, fake_shard_table()),
            oracle: ConnOracle::new(
                Workload::Restart {
                    keys: crate::gen::KEYS,
                },
                0,
            ),
            attempted: 0,
            failed: 0,
        };
        let mix = Mix {
            window: [0; 4],
            get_pace_hz: 1000,
        };
        let slicing = Slicing::ByTime {
            from: start,
            len: Duration::from_millis(400),
            n: 1,
        };
        sleep_until(start);
        let res = drive(&mut state, &mut server, mix, slicing, false).unwrap();
        let mut lat = res.samples[Class::Get as usize][0].clone();
        lat.sort_unstable();
        assert!((380..=401).contains(&lat.len()), "{} samples", lat.len());
        assert_eq!(state.attempted as usize, res.done_total as usize);
        let over_10ms = lat.iter().filter(|l| **l > 10_000_000).count();
        assert!(
            (80..=100).contains(&over_10ms),
            "{over_10ms} requests should carry the stall, not one"
        );
        let worst = *lat.last().unwrap();
        assert!(
            (95_000_000..130_000_000).contains(&worst),
            "worst {worst} ns"
        );
        // The server answered in order with 20 µs service, so outside the
        // stall the median stays near the service time.
        assert!(lat[lat.len() / 2] < 2_000_000);
        assert_eq!(state.failed + state.oracle.misses, 0);
        // The generator reports how late it ran.
        let late = res.lag.iter().filter(|l| **l > 10_000_000).count();
        assert!((80..=100).contains(&late), "{late} late sends");
        // The host reference was sampled every 2 ms of the 300 ms the loop
        // was not stalled, and every sample took some CPU and not much.
        let host = &res.host_ref[0];
        assert!((100..=210).contains(&host.len()), "{} samples", host.len());
        assert!(host.iter().all(|ns| (500..5_000_000).contains(ns)));
    }
}
