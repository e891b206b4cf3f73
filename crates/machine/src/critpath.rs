//! Critical-path and blame analysis over a simulated schedule.
//!
//! Rebuilds the execution of a [`Schedule`] under a [`MachineConfig`] as an
//! explicit event-dependency DAG — per-processor program order, send→recv
//! matching edges, and the per-receiver link-serialization edges of a
//! multicast — then computes the exact critical path, per-event slack, and
//! a blame decomposition charging every simulated nanosecond of the
//! makespan to a category (compute, α software overhead, β bandwidth, link
//! contention, receive-wait idle, end-of-run drain), attributed per
//! processor, per link and per message. It is the one account of a run:
//! the simulator keeps only the totals ([`SimStats`]), and everything
//! finer — each processor's compute, communication and idle time, the
//! traffic per link, each transmission's latency
//! ([`CritAnalysis::latencies_ns`]) — is read from here.
//!
//! ## The machine's lanes
//!
//! When the calling thread is capturing a trace (`dmc_obs`), [`analyze`]
//! also draws the run from its events: one sim lane per processor, idle
//! ones included, each holding that processor's actions in machine order
//! with their simulated `t0`/`t1` seconds, then the critical-path lane.
//! The simulator records no timeline of its own, so a capture of
//! [`crate::simulate`] alone holds no sim lane.
//!
//! ## Exactness: the nanosecond grid
//!
//! The events are the steps of the simulator's own machine loop, which
//! charges every action's duration once, rounded to whole nanoseconds,
//! and keeps `u64` clocks: this module adds no clock, mailbox or
//! scheduling of its own, only the edges, blame and slack built from the
//! steps. Critical-path invariants ("blame sums to the makespan", "zero
//! slack iff on the critical path") hold *exactly* in integer arithmetic,
//! where a floating-point backward pass would subtract in a different
//! association order than the forward clock additions. So every
//! `--check` invariant is a strict equality, byte-identical across hosts,
//! and [`CritAnalysis::verify`] checks the analysis against the totals of
//! a real run: its makespan, transmissions and words.

use std::collections::HashMap;

use dmc_obs as obs;

use crate::config::MachineConfig;
use crate::schedule::{Action, Schedule};
pub use crate::sim::ns_of;
use crate::sim::{run_machine, secs, SimError};
use crate::stats::SimStats;

/// What one DAG event models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A compute block on its processor.
    Compute,
    /// The sender-side busy time of one logical send (α + β, times the
    /// multicast factor).
    SendBusy,
    /// One in-flight transmission: wire time plus the per-receiver
    /// serialization stagger of a multicast.
    Wire,
    /// The receiver-side software overhead of one receive.
    Recv,
}

impl EventKind {
    /// Short lowercase name used in reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::SendBusy => "send",
            EventKind::Wire => "wire",
            EventKind::Recv => "recv",
        }
    }
}

/// One node of the event-dependency DAG. Times are integer nanoseconds
/// of simulated time (see the module docs for why not seconds).
#[derive(Clone, Debug)]
pub struct Event {
    /// What the event models.
    pub kind: EventKind,
    /// Owning processor (for [`EventKind::Wire`]: the sending processor).
    pub proc: usize,
    /// Destination processor of a wire/receive event.
    pub dst: Option<usize>,
    /// Message id for send/wire/recv events.
    pub msg: Option<usize>,
    /// Statement id for compute events.
    pub stmt: Option<usize>,
    /// Earliest start (= max predecessor finish; 0 for sources).
    pub start_ns: u64,
    /// Earliest finish (= `start_ns + dur_ns`).
    pub finish_ns: u64,
    /// Duration on the nanosecond grid.
    pub dur_ns: u64,
    /// Slack: how far the event can slip without moving the makespan
    /// (`latest finish − earliest finish`; 0 exactly on critical events).
    pub slack_ns: u64,
    /// Predecessor event indices (always `< ` this event's own index, so
    /// index order is a topological order and the DAG is acyclic by
    /// construction).
    pub preds: Preds,
}

/// An event's predecessors, held inline: at most two — the event before
/// it on its processor's timeline and, for a receive, the wire that
/// brought its message; a wire's one is its send.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Preds {
    len: u8,
    ids: [u32; 2],
}

impl Preds {
    /// At most one predecessor.
    fn of(first: Option<u32>) -> Self {
        let mut preds = Preds::default();
        first.into_iter().for_each(|id| preds.push(id));
        preds
    }

    /// Adds a predecessor.
    ///
    /// # Panics
    ///
    /// Panics past two.
    fn push(&mut self, id: u32) {
        self.ids[usize::from(self.len)] = id;
        self.len += 1;
    }
}

impl std::ops::Deref for Preds {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.ids[..usize::from(self.len)]
    }
}

/// Blame decomposition of one processor's share of the makespan. The six
/// categories tile the interval `[0, makespan]` exactly:
/// [`Blame::total`] `== makespan_ns` for every processor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Blame {
    /// Executing compute blocks.
    pub compute_ns: u64,
    /// Message software overhead: one α_send per send plus one α_recv per
    /// receive.
    pub alpha_ns: u64,
    /// Bandwidth: the β·bytes share of the sender busy time.
    pub beta_ns: u64,
    /// Link contention: sender busy time beyond one α + β — the extra
    /// sequential message times a Linear/Log multicast serializes.
    pub contention_ns: u64,
    /// Blocked in a receive before the message arrived.
    pub recv_wait_ns: u64,
    /// Finished, idling until the machine-wide makespan.
    pub drain_ns: u64,
}

impl Blame {
    /// Sum of all categories — exactly the makespan for a per-processor
    /// blame, and `nproc × makespan` for the machine total.
    pub fn total(&self) -> u64 {
        self.compute_ns
            + self.alpha_ns
            + self.beta_ns
            + self.contention_ns
            + self.recv_wait_ns
            + self.drain_ns
    }

    fn add(&mut self, other: &Blame) {
        self.compute_ns += other.compute_ns;
        self.alpha_ns += other.alpha_ns;
        self.beta_ns += other.beta_ns;
        self.contention_ns += other.contention_ns;
        self.recv_wait_ns += other.recv_wait_ns;
        self.drain_ns += other.drain_ns;
    }

    /// `(name, value)` pairs in canonical render order.
    pub fn categories(&self) -> [(&'static str, u64); 6] {
        [
            ("compute", self.compute_ns),
            ("alpha", self.alpha_ns),
            ("beta", self.beta_ns),
            ("contention", self.contention_ns),
            ("recv_wait", self.recv_wait_ns),
            ("drain", self.drain_ns),
        ]
    }
}

/// Per-message attribution: what one logical message costs the machine.
#[derive(Clone, Debug)]
pub struct MsgBlame {
    /// Message id (index into `schedule.messages`).
    pub msg: usize,
    /// Sending processor.
    pub sender: usize,
    /// Physical receivers.
    pub fanout: usize,
    /// Sender busy time charged (α + β + contention).
    pub send_ns: u64,
    /// Receiver wait it caused (summed over receivers).
    pub wait_ns: u64,
    /// Receiver software overhead it charged (summed over receivers).
    pub recv_ns: u64,
    /// Minimum slack over the message's send/wire/recv events.
    pub slack_ns: u64,
    /// Whether any of its events is on a critical path (slack 0).
    pub critical: bool,
    /// The α and wire (β) shares of one transmission, kept for the
    /// what-if scenarios.
    alpha_ns: u64,
    wire_ns: u64,
    /// Event indices: the send-busy event, then wires, then recvs.
    events: Vec<u32>,
}

impl MsgBlame {
    /// Total processor time the message charges (send + wait + recv).
    pub fn cost_ns(&self) -> u64 {
        self.send_ns + self.wait_ns + self.recv_ns
    }

    /// Whether the run sent it: a message no processor sends has no
    /// events and charges nothing.
    pub fn sent(&self) -> bool {
        !self.events.is_empty()
    }
}

/// Per-link attribution, zero-traffic links omitted.
#[derive(Clone, Copy, Debug)]
pub struct LinkBlame {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Transmissions over the link.
    pub transmissions: u64,
    /// Payload words delivered over the link.
    pub words: u64,
    /// Wire occupancy (β·bytes plus multicast stagger), nanoseconds.
    pub wire_ns: u64,
    /// Receiver wait caused by messages on this link, nanoseconds.
    pub wait_ns: u64,
    /// Whether any transmission on the link is on a critical path.
    pub critical: bool,
}

/// A what-if scenario for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The message is eliminated outright (a smarter §6 pass proved it
    /// redundant): send, wire and receive costs all vanish.
    Eliminate,
    /// The message piggybacks on another (aggregation): the payload still
    /// crosses the wire, but both software overheads vanish.
    Aggregate,
    /// Hardware multicast: one α + β on the sender regardless of fan-out,
    /// no per-receiver serialization stagger.
    Multicast,
}

impl Scenario {
    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Eliminate => "eliminate",
            Scenario::Aggregate => "aggregate",
            Scenario::Multicast => "multicast",
        }
    }
}

/// Duration and dependency overrides for a DAG re-evaluation.
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// `(event, new duration)` pairs.
    pub durs: Vec<(u32, u64)>,
    /// Receive events whose wire (message-arrival) predecessor edge is
    /// removed — an eliminated message no longer gates its receiver.
    pub unlink_wire: Vec<u32>,
}

/// One what-if estimate: applying `scenario` to `msg` drops the makespan
/// by `win_ns`.
#[derive(Clone, Copy, Debug)]
pub struct WhatIf {
    /// Message id.
    pub msg: usize,
    /// Scenario applied.
    pub scenario: Scenario,
    /// Exact makespan reduction: the makespan minus
    /// [`CritAnalysis::makespan_full`] under the scenario's overrides.
    pub win_ns: u64,
}

/// The full analysis of one simulated schedule.
#[derive(Clone, Debug)]
pub struct CritAnalysis {
    /// Simulated processors.
    pub nproc: usize,
    /// Machine makespan on the nanosecond grid.
    pub makespan_ns: u64,
    /// The event DAG in topological (construction) order.
    pub events: Vec<Event>,
    /// The canonical critical path: a gapless source→sink chain of event
    /// indices achieving the makespan, in time order. Ties break toward
    /// the smallest event index, so the chain is deterministic.
    pub chain: Vec<u32>,
    /// Per-processor blame; each sums exactly to `makespan_ns`.
    pub per_proc: Vec<Blame>,
    /// Machine-total blame (sums to `nproc × makespan_ns`).
    pub total: Blame,
    /// Per-message attribution, indexed by message id.
    pub messages: Vec<MsgBlame>,
    /// Per-link attribution, `(src, dst)` sorted, zero links omitted.
    pub links: Vec<LinkBlame>,
}

/// Builds the event DAG for `schedule` under `config` and analyzes it.
///
/// The events are the steps of the simulator's own machine loop, in the
/// order it runs them, so a schedule the simulator rejects errors here
/// identically. A capturing thread also gets the run's sim lanes (see the
/// module docs).
///
/// # Errors
///
/// Returns [`SimError`] on deadlock or a malformed schedule, exactly like
/// [`crate::simulate`].
pub fn analyze(schedule: &Schedule, config: &MachineConfig) -> Result<CritAnalysis, SimError> {
    let nproc = schedule.procs.len();
    let alpha_send_ns = ns_of(config.alpha_send);

    // One event per action, and one more per transmission: reserved
    // exactly, so the DAG never holds a doubled buffer.
    let transmissions: usize = (schedule.procs.iter().flatten())
        .map(|a| match a {
            Action::Send { msg } => schedule.messages.get(*msg).map_or(0, |m| m.receivers.len()),
            _ => 0,
        })
        .sum();
    let actions: usize = schedule.procs.iter().map(Vec::len).sum();
    let mut events: Vec<Event> = Vec::with_capacity(actions + transmissions);
    let mut last_event: Vec<Option<u32>> = vec![None; nproc];
    let mut per_proc = vec![Blame::default(); nproc];
    // Per link, `src * nproc + dst`: its account, the waits filled in
    // during the replay and the rest from the wire events after it.
    let mut links: Vec<LinkBlame> = (0..nproc * nproc)
        .map(|l| LinkBlame {
            src: l / nproc,
            dst: l % nproc,
            transmissions: 0,
            words: 0,
            wire_ns: 0,
            wait_ns: 0,
            critical: false,
        })
        .collect();
    // Per message, the event of its latest send's first wire.
    let mut first_wire = vec![0u32; schedule.messages.len()];

    let mut messages: Vec<MsgBlame> = schedule
        .messages
        .iter()
        .enumerate()
        .map(|(i, spec)| MsgBlame {
            msg: i,
            sender: spec.sender,
            fanout: spec.receivers.len(),
            send_ns: 0,
            wait_ns: 0,
            recv_ns: 0,
            slack_ns: u64::MAX,
            critical: false,
            alpha_ns: alpha_send_ns,
            wire_ns: ns_of(config.wire_time(spec.words * config.word_bytes)),
            // Its send, then a wire and a receive per receiver.
            events: Vec::with_capacity(1 + 2 * spec.receivers.len()),
        })
        .collect();

    // One event per step on its processor's timeline, after the one
    // before it; a receive also after the wire that brought its message.
    let finish = run_machine(schedule, config, |step| {
        let (p, dur) = (step.proc, step.dur);
        let idx = events.len() as u32;
        let finish = step.start + dur;
        let mut event = Event {
            kind: EventKind::Compute,
            proc: p,
            dst: None,
            msg: None,
            stmt: None,
            start_ns: step.start,
            finish_ns: finish,
            dur_ns: dur,
            slack_ns: 0,
            preds: Preds::of(last_event[p]),
        };
        last_event[p] = Some(idx);
        match step.action {
            Action::Block { stmt, .. } => {
                per_proc[p].compute_ns += dur;
                events.push(Event {
                    stmt: Some(*stmt),
                    ..event
                });
            }
            Action::Send { msg } => {
                let mb = &mut messages[*msg];
                // Exact tiling of the busy time: charge up to one α and one
                // β, and call the rest — the extra sequential message times
                // of a Linear/Log multicast — link contention.
                let alpha = mb.alpha_ns.min(dur);
                let beta = mb.wire_ns.min(dur - alpha);
                per_proc[p].alpha_ns += alpha;
                per_proc[p].beta_ns += beta;
                per_proc[p].contention_ns += dur - alpha - beta;
                mb.send_ns += dur;
                mb.events.push(idx);
                events.push(Event {
                    kind: EventKind::SendBusy,
                    msg: Some(*msg),
                    ..event
                });
                // The wires: on no processor's timeline, each only binds
                // its receive's earliest start.
                first_wire[*msg] = idx + 1;
                let receivers = &schedule.messages[*msg].receivers;
                for (&r, &arrival) in receivers.iter().zip(step.arrivals) {
                    mb.events.push(events.len() as u32);
                    events.push(Event {
                        kind: EventKind::Wire,
                        proc: p,
                        dst: Some(r),
                        msg: Some(*msg),
                        stmt: None,
                        start_ns: finish,
                        finish_ns: arrival,
                        dur_ns: arrival - finish,
                        slack_ns: 0,
                        preds: Preds::of(Some(idx)),
                    });
                }
            }
            Action::Recv { msg } => {
                let got = step.delivery.expect("a receive takes a delivery");
                let mb = &mut messages[*msg];
                per_proc[p].recv_wait_ns += got.wait;
                per_proc[p].alpha_ns += dur;
                links[mb.sender * nproc + p].wait_ns += got.wait;
                mb.wait_ns += got.wait;
                mb.recv_ns += dur;
                event.preds.push(first_wire[*msg] + got.k as u32);
                mb.events.push(idx);
                events.push(Event {
                    kind: EventKind::Recv,
                    dst: Some(p),
                    msg: Some(*msg),
                    ..event
                });
            }
        }
        Ok(())
    })?;

    let makespan_ns = finish.iter().copied().max().unwrap_or(0);
    for p in 0..nproc {
        per_proc[p].drain_ns = makespan_ns - finish[p];
    }
    let mut total = Blame::default();
    for b in &per_proc {
        total.add(b);
    }

    // Backward pass: latest finish without moving any sink past the
    // makespan. Exact in integer arithmetic; `lf >= finish` everywhere
    // (induction: lf[i] - dur[i] >= start[i] >= finish[pred]).
    let n = events.len();
    let mut lf = vec![makespan_ns; n];
    for i in (0..n).rev() {
        let ls = lf[i] - events[i].dur_ns;
        for k in 0..events[i].preds.len() {
            let p = events[i].preds[k] as usize;
            lf[p] = lf[p].min(ls);
        }
    }
    for (i, e) in events.iter_mut().enumerate() {
        e.slack_ns = lf[i] - e.finish_ns;
    }

    // Canonical critical path: from the earliest-index makespan sink,
    // walk tight predecessor edges (pred finish == own start), smallest
    // index first. Every event has a tight predecessor unless it starts
    // at 0, so the walk reaches a source and the chain is gapless.
    let mut chain: Vec<u32> = Vec::new();
    if let Some(sink) = (0..n).find(|&i| events[i].finish_ns == makespan_ns) {
        let mut cur = sink;
        chain.push(cur as u32);
        loop {
            let start = events[cur].start_ns;
            let Some(&tight) = events[cur]
                .preds
                .iter()
                .filter(|&&p| events[p as usize].finish_ns == start)
                .min()
            else {
                break;
            };
            cur = tight as usize;
            chain.push(cur as u32);
        }
        chain.reverse();
    }

    for mb in &mut messages {
        for &e in &mb.events {
            mb.slack_ns = mb.slack_ns.min(events[e as usize].slack_ns);
        }
        if mb.events.is_empty() {
            mb.slack_ns = 0; // Never sent: no events, no slack to speak of.
        }
        mb.critical = !mb.events.is_empty() && mb.slack_ns == 0;
    }

    // Per-link rollup from the wire events, beside the waits recorded
    // during the replay; the links that carried nothing go, and the rest
    // stay in `(src, dst)` order.
    for e in &events {
        if e.kind != EventKind::Wire {
            continue;
        }
        let (Some(dst), Some(msg)) = (e.dst, e.msg) else {
            continue;
        };
        let l = &mut links[messages[msg].sender * nproc + dst];
        l.transmissions += 1;
        l.words += schedule.messages[msg].words;
        l.wire_ns += e.dur_ns;
        l.critical |= e.slack_ns == 0;
    }
    links.retain(|l| l.transmissions > 0);
    links.shrink_to_fit();

    let analysis = CritAnalysis {
        nproc,
        makespan_ns,
        events,
        chain,
        per_proc,
        total,
        messages,
        links,
    };
    if obs::enabled() {
        analysis.draw(schedule);
    }
    Ok(analysis)
}

impl CritAnalysis {
    /// Number of zero-slack (critical) events.
    pub fn critical_events(&self) -> usize {
        self.events.iter().filter(|e| e.slack_ns == 0).count()
    }

    /// Each transmission's latency, send start to receive finish, in the
    /// order the receives ran: one per receive event.
    pub fn latencies_ns(&self) -> Vec<u64> {
        (self.events.iter())
            .filter(|e| e.kind == EventKind::Recv)
            .map(|recv| {
                // A receive's last predecessor is the wire that brought its
                // message, and a wire's one is its send.
                let wire = &self.events[*recv.preds.last().expect("a receive has a wire") as usize];
                recv.finish_ns - self.events[wire.preds[0] as usize].start_ns
            })
            .collect()
    }

    /// Successor adjacency, the transpose of the `preds` lists.
    pub fn successors(&self) -> Vec<Vec<u32>> {
        let mut succs = vec![Vec::new(); self.events.len()];
        for (i, e) in self.events.iter().enumerate() {
            for &p in e.preds.iter() {
                succs[p as usize].push(i as u32);
            }
        }
        succs
    }

    /// The overrides `scenario` applies to message `mb`, or `None` when
    /// the scenario does not apply (multicast of a single-receiver
    /// message, or a message that was never sent).
    fn scenario_overrides(&self, mb: &MsgBlame, scenario: Scenario) -> Option<Overrides> {
        if mb.events.is_empty() {
            return None;
        }
        let mut ov = Overrides::default();
        match scenario {
            Scenario::Eliminate => {
                // The message never happens: all its costs vanish AND its
                // receives no longer gate on the sender (the wire edge is
                // cut; program order on the receiver remains).
                for &e in &mb.events {
                    ov.durs.push((e, 0));
                    if self.events[e as usize].kind == EventKind::Recv {
                        ov.unlink_wire.push(e);
                    }
                }
            }
            Scenario::Aggregate => {
                // Piggyback on another message: the payload still crosses
                // the wire, but the software overheads vanish on both
                // ends.
                for &e in &mb.events {
                    let new = match self.events[e as usize].kind {
                        EventKind::SendBusy => mb.wire_ns,
                        EventKind::Recv => 0,
                        _ => continue,
                    };
                    ov.durs.push((e, new));
                }
            }
            Scenario::Multicast => {
                // Hardware multicast: one α + β on the sender regardless
                // of fan-out, and no per-receiver serialization stagger.
                if mb.fanout < 2 {
                    return None;
                }
                for &e in &mb.events {
                    let new = match self.events[e as usize].kind {
                        EventKind::SendBusy => mb.alpha_ns + mb.wire_ns,
                        EventKind::Wire => mb.wire_ns,
                        _ => continue,
                    };
                    ov.durs.push((e, new));
                }
            }
        }
        Some(ov)
    }

    /// The makespan under `ov`: one forward pass over the whole DAG, in
    /// index (topological) order.
    pub fn makespan_full(&self, ov: &Overrides) -> u64 {
        let durs: HashMap<u32, u64> = ov.durs.iter().copied().collect();
        let unlink: std::collections::HashSet<u32> = ov.unlink_wire.iter().copied().collect();
        let mut fin = vec![0u64; self.events.len()];
        let mut makespan = 0;
        for (i, e) in self.events.iter().enumerate() {
            let start = self
                .live_preds(i as u32, &unlink)
                .map(|p| fin[p as usize])
                .max()
                .unwrap_or(0);
            fin[i] = start + durs.get(&(i as u32)).copied().unwrap_or(e.dur_ns);
            makespan = makespan.max(fin[i]);
        }
        makespan
    }

    /// Predecessors of event `i` surviving the wire-edge cuts in
    /// `unlink` (a receive in `unlink` keeps only program order).
    fn live_preds<'a>(
        &'a self,
        i: u32,
        unlink: &'a std::collections::HashSet<u32>,
    ) -> impl Iterator<Item = u32> + 'a {
        let cut = unlink.contains(&i);
        self.events[i as usize]
            .preds
            .iter()
            .copied()
            .filter(move |&p| !(cut && self.events[p as usize].kind == EventKind::Wire))
    }

    /// Estimates every applicable `(message, scenario)` what-if, sorted
    /// by win descending (ties by message id, then scenario order).
    ///
    /// A message none of whose events is critical cannot move the
    /// makespan by getting cheaper (every scenario only shrinks
    /// durations), so it is pruned to a zero win without re-evaluation;
    /// the rest are re-evaluated by [`CritAnalysis::makespan_full`].
    pub fn what_if(&self) -> Vec<WhatIf> {
        let mut out = Vec::new();
        for mb in &self.messages {
            for (ord, scenario) in [
                Scenario::Eliminate,
                Scenario::Aggregate,
                Scenario::Multicast,
            ]
            .into_iter()
            .enumerate()
            {
                let Some(ov) = self.scenario_overrides(mb, scenario) else {
                    continue;
                };
                let win_ns = if mb.slack_ns > 0 {
                    0
                } else {
                    self.makespan_ns - self.makespan_full(&ov)
                };
                out.push((
                    ord,
                    WhatIf {
                        msg: mb.msg,
                        scenario,
                        win_ns,
                    },
                ));
            }
        }
        out.sort_by(|a, b| {
            b.1.win_ns
                .cmp(&a.1.win_ns)
                .then(a.1.msg.cmp(&b.1.msg))
                .then(a.0.cmp(&b.0))
        });
        out.into_iter().map(|(_, w)| w).collect()
    }

    /// The single best what-if, if any message was sent.
    pub fn top_what_if(&self) -> Option<WhatIf> {
        self.what_if().into_iter().next()
    }

    /// Checks the what-if pruning: for every message [`CritAnalysis::what_if`]
    /// prunes (it has slack), the full pass under each scenario leaves the
    /// makespan unchanged.
    pub fn verify_what_ifs(&self) -> Result<(), String> {
        for mb in &self.messages {
            for scenario in [
                Scenario::Eliminate,
                Scenario::Aggregate,
                Scenario::Multicast,
            ] {
                let Some(ov) = self.scenario_overrides(mb, scenario) else {
                    continue;
                };
                if mb.slack_ns == 0 {
                    continue;
                }
                let full = self.makespan_full(&ov);
                if full != self.makespan_ns {
                    return Err(format!(
                        "what-if msg {} {}: pruned (slack {}) but full re-eval moved \
                         the makespan {} -> {}",
                        mb.msg,
                        scenario.name(),
                        mb.slack_ns,
                        self.makespan_ns,
                        full
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks every structural invariant of the analysis, and its exact
    /// agreement with the totals of the simulator's own run, `stats`:
    ///
    /// - the DAG is acyclic and the stored event times are its exact
    ///   longest-path values (forward DP re-derivation);
    /// - the makespan equals the longest path, equals the simulator's
    ///   finish time on the nanosecond grid;
    /// - an event has zero slack iff it is in the backward tight-edge
    ///   closure of the makespan sinks (i.e. on some critical path);
    /// - the canonical chain is a gapless source→sink critical path;
    /// - every processor's blame categories sum exactly to the makespan,
    ///   and the machine total sums to `nproc × makespan`;
    /// - the links' transmissions and words sum to the simulator's.
    pub fn verify(&self, stats: &SimStats) -> Result<(), String> {
        let n = self.events.len();
        let fail = |msg: String| -> Result<(), String> { Err(msg) };

        // Forward re-derivation: topological order + earliest times.
        let mut max_finish = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            let mut start = 0u64;
            for &p in e.preds.iter() {
                if p as usize >= i {
                    return fail(format!("event {i}: predecessor {p} not earlier (cycle)"));
                }
                start = start.max(self.events[p as usize].finish_ns);
            }
            if e.start_ns != start {
                return fail(format!(
                    "event {i}: start {} != max predecessor finish {start}",
                    e.start_ns
                ));
            }
            if e.finish_ns != e.start_ns + e.dur_ns {
                return fail(format!("event {i}: finish != start + dur"));
            }
            max_finish = max_finish.max(e.finish_ns);
        }
        if max_finish != self.makespan_ns {
            return fail(format!(
                "longest path {} != makespan {}",
                max_finish, self.makespan_ns
            ));
        }
        if ns_of(stats.time) != self.makespan_ns {
            return fail(format!(
                "simulator finish {} ns != makespan {}",
                ns_of(stats.time),
                self.makespan_ns
            ));
        }

        // Zero slack iff in the backward tight-edge closure of the sinks.
        let mut on_path = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let succs = self.successors();
        for (i, e) in self.events.iter().enumerate() {
            if succs[i].is_empty() && e.finish_ns == self.makespan_ns {
                on_path[i] = true;
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            for &p in self.events[i].preds.iter() {
                let p = p as usize;
                if !on_path[p] && self.events[p].finish_ns == self.events[i].start_ns {
                    on_path[p] = true;
                    stack.push(p);
                }
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            if (e.slack_ns == 0) != on_path[i] {
                return fail(format!(
                    "event {i}: slack {} vs critical-closure membership {}",
                    e.slack_ns, on_path[i]
                ));
            }
        }

        // The canonical chain is a gapless critical source→sink path.
        if n > 0 && self.chain.is_empty() {
            return fail("empty critical chain on a non-empty DAG".into());
        }
        for (j, &c) in self.chain.iter().enumerate() {
            let e = &self.events[c as usize];
            if e.slack_ns != 0 {
                return fail(format!("chain event {c} has slack {}", e.slack_ns));
            }
            if j == 0 && e.start_ns != 0 {
                return fail(format!("chain starts at {} ns, not 0", e.start_ns));
            }
            if j + 1 == self.chain.len() && e.finish_ns != self.makespan_ns {
                return fail(format!(
                    "chain ends at {} ns, not the makespan {}",
                    e.finish_ns, self.makespan_ns
                ));
            }
            if j > 0 {
                let prev = &self.events[self.chain[j - 1] as usize];
                if prev.finish_ns != e.start_ns || !e.preds.contains(&self.chain[j - 1]) {
                    return fail(format!(
                        "chain gap between events {} and {c}",
                        self.chain[j - 1]
                    ));
                }
            }
        }

        // Blame tiles the makespan exactly, per processor.
        for (p, b) in self.per_proc.iter().enumerate() {
            if b.total() != self.makespan_ns {
                return fail(format!(
                    "p{p}: blame sums to {} != makespan {}",
                    b.total(),
                    self.makespan_ns
                ));
            }
        }
        // The machine-total blame the snapshot reports tiles
        // nproc × makespan.
        if self.total.total() != self.per_proc.len() as u64 * self.makespan_ns {
            return fail(format!(
                "machine blame sums to {} != {} procs x makespan {}",
                self.total.total(),
                self.per_proc.len(),
                self.makespan_ns
            ));
        }

        // Message attribution covers exactly the non-compute, non-drain
        // processor time.
        let msg_cost: u64 = self.messages.iter().map(|m| m.cost_ns()).sum();
        let comm_total = self.total.alpha_ns
            + self.total.beta_ns
            + self.total.contention_ns
            + self.total.recv_wait_ns;
        if msg_cost != comm_total {
            return fail(format!(
                "message costs sum to {msg_cost} != machine comm blame {comm_total}"
            ));
        }

        // The links carry exactly the simulator's traffic.
        let transmissions: u64 = self.links.iter().map(|l| l.transmissions).sum();
        let words: u64 = self.links.iter().map(|l| l.words).sum();
        if (transmissions, words) != (stats.transmissions, stats.words) {
            return fail(format!(
                "links carry {transmissions} transmission(s), {words} word(s) != \
                 simulator {}, {}",
                stats.transmissions, stats.words
            ));
        }
        Ok(())
    }

    /// Draws the run into the calling thread's capture, stamped with
    /// *simulated* seconds (`t0`/`t1` fields): one sim lane per processor,
    /// idle ones included, holding its actions in machine order — a
    /// `sim.compute` per block, a `sim.send` per send, a `sim.recv.wait`
    /// wherever a receive started after the processor's previous finish,
    /// a `sim.recv` per receive, and a `sim.proc` at its finish — then a
    /// "critical path" lane (processor index `nproc`) carrying one
    /// `crit.span` per chain event of nonzero duration, which the Chrome
    /// trace shows under the processors' timelines.
    fn draw(&self, schedule: &Schedule) {
        let mut free = vec![0u64; self.nproc];
        for e in self.events.iter().filter(|e| e.kind != EventKind::Wire) {
            let p = e.proc;
            let _lane = obs::lane(obs::sim_lane(p), format!("sim p{p}"));
            let mut fields = vec![obs::field("proc", p)];
            fields.extend(e.stmt.map(|s| obs::field("stmt", s)));
            fields.extend(e.msg.map(|m| obs::field("msg", m)));
            let name = match (e.kind, e.msg) {
                (EventKind::SendBusy, Some(msg)) => {
                    let spec = &schedule.messages[msg];
                    fields.push(obs::field("words", spec.words));
                    fields.push(obs::field("nrecv", spec.receivers.len()));
                    "sim.send"
                }
                (EventKind::Recv, Some(msg)) => {
                    let spec = &schedule.messages[msg];
                    if e.start_ns > free[p] {
                        obs::event(
                            "sim.recv.wait",
                            vec![
                                obs::field("proc", p),
                                obs::field("msg", msg),
                                obs::field("t0", secs(free[p])),
                                obs::field("t1", secs(e.start_ns)),
                            ],
                        );
                    }
                    fields.push(obs::field("from", spec.sender));
                    fields.push(obs::field("words", spec.words));
                    "sim.recv"
                }
                _ => "sim.compute",
            };
            fields.push(obs::field("t0", secs(e.start_ns)));
            fields.push(obs::field("t1", secs(e.finish_ns)));
            obs::event(name, fields);
            free[p] = e.finish_ns;
        }
        for (p, &f) in free.iter().enumerate() {
            let _lane = obs::lane(obs::sim_lane(p), format!("sim p{p}"));
            obs::event(
                "sim.proc",
                vec![obs::field("proc", p), obs::field("t0", secs(f))],
            );
        }
        // The chain is gapless in time, so its spans form one contiguous
        // row.
        let _lane = obs::lane(obs::sim_lane(self.nproc), "critical path");
        for e in self.chain.iter().map(|&c| &self.events[c as usize]) {
            if e.dur_ns == 0 {
                continue;
            }
            let mut fields = vec![
                obs::field("kind", e.kind.name()),
                obs::field("proc", e.proc),
                obs::field("slack_ns", e.slack_ns),
                obs::field("t0", secs(e.start_ns)),
                obs::field("t1", secs(e.finish_ns)),
            ];
            if let Some(m) = e.msg {
                fields.push(obs::field("msg", m));
            }
            if let Some(s) = e.stmt {
                fields.push(obs::field("stmt", s));
            }
            obs::event("crit.span", fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{MessageSpec, Schedule};
    use crate::sim::InitialPlacement;
    use crate::simulate;

    fn block(stmt: usize, flops: f64) -> Action {
        Action::Block {
            stmt,
            prefix: vec![],
            inner_range: None,
            flops,
        }
    }

    /// Runs the real simulator on `schedule` to get the ground-truth stats
    /// the analysis must agree with. The program only supplies statement
    /// ids 0..=2; flops come from the schedule.
    fn sim_stats(
        schedule: &Schedule,
        config: &MachineConfig,
        values: bool,
    ) -> Result<SimStats, SimError> {
        let program = dmc_ir::parse(
            "array A[8];
             for i = 0 to 2 { A[i] = 1.0; }
             for i = 0 to 2 { A[i] = 2.0; }
             for i = 0 to 2 { A[i] = 3.0; }",
        )
        .unwrap();
        let grid = dmc_decomp::ProcGrid::line(schedule.procs.len() as i128);
        simulate(
            &program,
            &HashMap::new(),
            &grid,
            schedule,
            config,
            &InitialPlacement::Replicated,
            values,
        )
        .map(|r| r.stats)
    }

    /// Two processors: p0 computes then sends; p1 computes (shorter),
    /// waits, receives, computes again.
    fn pingpong() -> Schedule {
        let mut s = Schedule::new(2);
        s.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1],
            words: 10,
            payload: None,
        });
        s.procs[0].push(block(0, 1000.0));
        s.procs[0].push(Action::Send { msg: 0 });
        s.procs[1].push(block(1, 10.0));
        s.procs[1].push(Action::Recv { msg: 0 });
        s.procs[1].push(block(2, 50.0));
        s
    }

    fn multicast() -> Schedule {
        let mut s = Schedule::new(4);
        s.messages.push(MessageSpec {
            sender: 0,
            receivers: vec![1, 2, 3],
            words: 8,
            payload: None,
        });
        s.procs[0].push(Action::Send { msg: 0 });
        for p in 1..4 {
            s.procs[p].push(Action::Recv { msg: 0 });
            s.procs[p].push(block(0, 100.0));
        }
        s
    }

    fn check(schedule: &Schedule, config: &MachineConfig) -> CritAnalysis {
        let stats = sim_stats(schedule, config, false).expect("simulate");
        let crit = analyze(schedule, config).expect("analyze");
        crit.verify(&stats).expect("verify");
        crit.verify_what_ifs().expect("what-ifs");
        crit
    }

    #[test]
    fn pingpong_blame_tiles_makespan() {
        let config = MachineConfig::ipsc860();
        let crit = check(&pingpong(), &config);
        // p0: 1000 flops then a send. p1 is on the critical path's tail.
        assert_eq!(crit.nproc, 2);
        for b in &crit.per_proc {
            assert_eq!(b.total(), crit.makespan_ns);
        }
        // Exact numbers: compute 1000*145 ns; send busy = α + β·40 bytes;
        // wire 14 400 ns; recv α 15 000 ns; final block 50*145 ns.
        let send_busy = 95_000 + 14_400;
        assert_eq!(
            crit.makespan_ns,
            145_000 + send_busy + 14_400 + 15_000 + 7_250
        );
        assert_eq!(crit.per_proc[0].compute_ns, 145_000);
        assert_eq!(crit.per_proc[0].alpha_ns, 95_000);
        assert_eq!(crit.per_proc[0].beta_ns, 14_400);
        assert_eq!(crit.per_proc[0].contention_ns, 0);
        assert_eq!(crit.per_proc[1].alpha_ns, 15_000);
        // One transmission: send start to receive finish.
        assert_eq!(crit.latencies_ns(), vec![send_busy + 14_400 + 15_000]);
        assert_eq!((crit.links[0].transmissions, crit.links[0].words), (1, 10));
        // The whole chain is critical: every event feeds the sink.
        assert_eq!(crit.chain.len(), 5);
        assert!(crit.messages[0].critical);
        // p1's first tiny block has slack (it finishes long before the
        // message arrives).
        let slacky = crit
            .events
            .iter()
            .find(|e| e.stmt == Some(1))
            .expect("p1 block");
        assert!(slacky.slack_ns > 0);
    }

    #[test]
    fn pingpong_what_if_eliminate_wins_comm_cost() {
        let config = MachineConfig::ipsc860();
        let crit = check(&pingpong(), &config);
        let wi = crit.what_if();
        let top = wi[0];
        assert_eq!(top.scenario, Scenario::Eliminate);
        // Eliminating the message leaves p1's two blocks back-to-back,
        // but p0's compute (145 µs) then dominates: the new makespan is
        // p0's compute, which exceeds p1's 1_450 + 7_250 sum.
        let new_makespan = 145_000u64;
        assert_eq!(top.win_ns, crit.makespan_ns - new_makespan);
        // Multicast does not apply to a single-receiver message.
        assert!(wi.iter().all(|w| w.scenario != Scenario::Multicast));
    }

    #[test]
    fn multicast_contention_and_what_if() {
        let config = MachineConfig::ipsc860();
        let crit = check(&multicast(), &config);
        // Log fan-out 3: busy = 2·(α + β·32B); one α+β is charged as
        // alpha/beta, the second sequential message time is contention.
        let one = 95_000 + 11_520;
        assert_eq!(crit.per_proc[0].alpha_ns, 95_000);
        assert_eq!(crit.per_proc[0].beta_ns, 11_520);
        assert_eq!(crit.per_proc[0].contention_ns, one);
        // Hardware-multicast what-if halves the sender busy time.
        let wi = crit.what_if();
        let mc = wi
            .iter()
            .find(|w| w.scenario == Scenario::Multicast)
            .expect("multicast scenario");
        assert!(mc.win_ns > 0, "{wi:?}");
        // Per-link attribution: three links, one transmission each, the
        // later receivers carrying the serialization stagger.
        assert_eq!(crit.links.len(), 3);
        assert!(crit.links.iter().all(|l| l.words == 8));
        assert_eq!(crit.links[0].wire_ns, 11_520);
        assert_eq!(crit.links[1].wire_ns, 11_521);
        assert_eq!(crit.links[2].wire_ns, 11_522);
    }

    #[test]
    fn zero_comm_machine_has_pure_compute_blame() {
        let config = MachineConfig::zero_comm();
        let crit = check(&pingpong(), &config);
        assert_eq!(crit.total.alpha_ns, 0);
        assert_eq!(crit.total.beta_ns, 0);
        assert_eq!(crit.total.contention_ns, 0);
        // Comm is free but the dependency remains: p1's last block still
        // waits for p0's 145 µs of compute, then adds its own 7.25 µs.
        assert_eq!(crit.makespan_ns, 145_000 + 7_250);
        // Aggregation/multicast win nothing (no software overhead to
        // shave), but *eliminating* the message also cuts the dependency
        // edge, letting p1 finish early: the win is p1's tail compute.
        for w in crit.what_if() {
            match w.scenario {
                Scenario::Eliminate => assert_eq!(w.win_ns, 7_250),
                _ => assert_eq!(w.win_ns, 0),
            }
        }
    }

    /// Every error the machine loop raises comes out of `simulate` (both
    /// modes) and `analyze` alike. A receive the mailbox holds nothing for
    /// — a message past the table, one the processor does not receive,
    /// one it already took — blocks, and the run ends in a deadlock; a
    /// message naming one receiver twice is refused before anything runs.
    #[test]
    fn deadlock_matches_simulator() {
        // Two processors, one message from p0 to p1 unless `receivers`
        // says otherwise, and the given actions.
        let schedule = |receivers: Vec<usize>, p0: Vec<Action>, p1: Vec<Action>| {
            let mut s = Schedule::new(2);
            s.messages.push(MessageSpec {
                sender: 0,
                receivers,
                words: 1,
                payload: None,
            });
            s.procs = vec![p0, p1];
            s
        };
        let cases = [
            (
                schedule(vec![1], vec![Action::Send { msg: 7 }], vec![]),
                SimError::MalformedSchedule("message 7".into()),
            ),
            (
                schedule(vec![0], vec![], vec![Action::Send { msg: 0 }]),
                SimError::MalformedSchedule("processor 1 sends message 0 owned by 0".into()),
            ),
            (
                schedule(vec![1, 2], vec![Action::Send { msg: 0 }], vec![]),
                SimError::MalformedSchedule("receiver 2 out of range".into()),
            ),
            (
                schedule(vec![1, 1], vec![Action::Send { msg: 0 }], vec![]),
                SimError::MalformedSchedule("message 0 names receiver 1 twice".into()),
            ),
            (
                schedule(
                    vec![1],
                    vec![Action::Send { msg: 0 }],
                    vec![Action::Recv { msg: 0 }, Action::Recv { msg: 1 }],
                ),
                SimError::Deadlock { blocked: vec![1] },
            ),
            (
                schedule(
                    vec![1],
                    vec![Action::Send { msg: 0 }, Action::Recv { msg: 0 }],
                    vec![Action::Recv { msg: 0 }],
                ),
                SimError::Deadlock { blocked: vec![0] },
            ),
            (
                schedule(
                    vec![1],
                    vec![Action::Send { msg: 0 }],
                    vec![Action::Recv { msg: 0 }, Action::Recv { msg: 0 }],
                ),
                SimError::Deadlock { blocked: vec![1] },
            ),
            (
                // p0 waits for p1's message before sending its own, and p1
                // waits for p0's.
                {
                    let mut s = schedule(vec![1], vec![], vec![]);
                    s.messages.push(MessageSpec {
                        sender: 1,
                        receivers: vec![0],
                        words: 1,
                        payload: None,
                    });
                    s.procs[0] = vec![Action::Recv { msg: 1 }, Action::Send { msg: 0 }];
                    s.procs[1] = vec![Action::Recv { msg: 0 }, Action::Send { msg: 1 }];
                    s
                },
                SimError::Deadlock {
                    blocked: vec![0, 1],
                },
            ),
        ];
        let config = MachineConfig::ipsc860();
        for (s, want) in cases {
            assert_eq!(sim_stats(&s, &config, false).unwrap_err(), want, "{s:?}");
            assert_eq!(sim_stats(&s, &config, true).unwrap_err(), want, "{s:?}");
            assert_eq!(analyze(&s, &config).unwrap_err(), want, "{s:?}");
        }
    }
}
