//! The schedule IR: a collective algorithm compiled to explicit
//! per-rank operation sequences.
//!
//! A [`Schedule`] is recorded by running the implementing code against
//! a symbolic recording context ([`RecCtx`], see [`record_schedule`])
//! and is then lowered to a [`crate::TimingDag`], which evaluates it
//! any number of times without OS threads, locks or condvars in the
//! loop.
//!
//! # Validity
//!
//! Record-once/replay-many is sound only for programs whose operation
//! stream depends solely on `(rank, size)` and statically known payload
//! shapes — never on timing, the noise seed, or received payload
//! *contents*. All collective algorithms in `collsel-coll` satisfy
//! this: their control flow is a pure function of rank, world size and
//! message lengths. The [`Comm`] surface keeps it so: every receive
//! names its exact source and tag and every wait is a wait-all, so which
//! send a receive matches never depends on timing.
//!
//! # Recording is symbolic
//!
//! The recorder exploits that contract instead of merely assuming it:
//! no rank threads, no timing engine, no fabric. Each rank's closure
//! runs on the calling thread against an untimed message board that
//! knows only which sends have been posted on each `(src, dst, tag)`
//! channel and how long they are. Consequently
//!
//! * the closure **may run more than once** per rank (a rank that
//!   waits on a receive whose send is not posted yet is unwound and
//!   re-executed from the top once other ranks have run), so it must be
//!   idempotent — a re-execution that issues a different operation
//!   stream is rejected as non-deterministic;
//! * received payloads are **symbolic**: a receive of `len` bytes
//!   returns [`Bytes::symbolic`]`(len)` — exact length, source and tag,
//!   and no contents at all. The collectives glue and reduce such
//!   buffers in O(1), so recording costs per operation, not per byte. A
//!   program that reads a received byte (to branch on it, to compare
//!   it, to copy it) breaks the validity contract above and is rejected
//!   with [`RecordError::Unsupported`] naming the rank, instead of
//!   being recorded against made-up data;
//! * `wtime` reads [`SimTime::ZERO`], and `barrier` and send
//!   completion never block, so a program that can only deadlock
//!   through timing — a rendezvous send nobody receives, a barrier
//!   crossed with a receive — records fine and reports
//!   [`SimError::Deadlock`] when the schedule is first evaluated.

use crate::comm::{Comm, Tag};
use crate::ctx::{RecvRequest, SendRequest};
use crate::error::SimError;
use crate::group::{group_fault, GROUP_BARRIER};
use crate::proto::ReqId;
use crate::sim::{check_ranks, panic_message};
use collsel_netsim::{ClusterModel, SimTime};
use collsel_support::bytes::{Bytes, SYMBOLIC_CONTENT_ACCESS};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// One recorded operation of a rank's program: everything a replay's
/// timing can depend on, with the payload reduced to its length.
///
/// [`Schedule::shape`] exposes a schedule's flat stream in this form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedOp {
    /// A non-blocking send of `len` bytes.
    Isend {
        /// Rank-local request id.
        req: u32,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload length in bytes.
        len: usize,
    },
    /// A non-blocking receive.
    Irecv {
        /// Rank-local request id.
        req: u32,
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
    },
    /// A blocking wait until every request of the set has completed.
    Wait {
        /// The waited request ids, in call order.
        reqs: Vec<u32>,
    },
    /// The runtime's ideal barrier.
    Barrier,
    /// A clock read; an evaluation collects the observed time into
    /// [`crate::ScheduledRun::wtimes`].
    Wtime,
}

impl SchedOp {
    /// The same operation as a sub-communicator issues it: request ids
    /// moved up by `req_by`, peer ranks mapped through `peer`, tags
    /// moved up by `tag_by`.
    fn mapped(&self, req_by: ReqId, peer: impl Fn(usize) -> usize, tag_by: Tag) -> SchedOp {
        match self {
            SchedOp::Isend { req, dst, tag, len } => SchedOp::Isend {
                req: req + req_by,
                dst: peer(*dst),
                tag: tag + tag_by,
                len: *len,
            },
            SchedOp::Irecv { req, src, tag } => SchedOp::Irecv {
                req: req + req_by,
                src: peer(*src),
                tag: tag + tag_by,
            },
            SchedOp::Wait { reqs } => SchedOp::Wait {
                reqs: reqs.iter().map(|r| r + req_by).collect(),
            },
            other => other.clone(),
        }
    }
}

/// A compiled SPMD program: for each rank, the exact sequence of
/// engine operations its code issues.
///
/// Produced by [`record_schedule`]; consumed by
/// [`crate::TimingDag::compile`]. It holds no payload bytes, only
/// lengths, and is cluster-independent, so one recording serves every
/// cluster, seed and fault plan of a campaign.
///
/// A schedule is stored in count form: one round of operations per rank
/// and how many times the program runs that round back to back
/// ([`repeated`](Schedule::repeated)). The program it stands for is the
/// flat stream — the round tiled as many times as the count says,
/// each round's request ids moved up by the rank's requests per round —
/// and that is what [`shape`](Schedule::shape) and
/// [`embed`](Schedule::embed) read; the timing DAG lowers one round and
/// loops it where that is exact.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per rank, one round's operations.
    pub(crate) ops: Vec<Vec<SchedOp>>,
    /// Per rank, how many requests one round's operations issue.
    /// Request ids are allocated densely in issue order, so this is
    /// also the id the rank's next request in the round gets.
    pub(crate) reqs: Vec<ReqId>,
    /// How many times the program runs the stored round; at least one.
    pub(crate) rounds: usize,
}

impl Schedule {
    /// The schedule of `ranks` ranks that issue nothing: what
    /// [`embed`](Schedule::embed) composes a step into.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or exceeds the cluster's process
    /// slots, as [`record_schedule`] does.
    pub fn idle(cluster: &ClusterModel, ranks: usize) -> Schedule {
        check_ranks(cluster, ranks);
        Schedule::empty(ranks)
    }

    fn empty(ranks: usize) -> Schedule {
        Schedule {
            ops: vec![Vec::new(); ranks],
            reqs: vec![0; ranks],
            rounds: 1,
        }
    }

    /// Number of ranks this schedule was recorded for.
    pub fn ranks(&self) -> usize {
        self.ops.len()
    }

    /// Stored operations across all ranks: one round's (diagnostics).
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Rank `rank`'s stored round, once per round the flat stream runs
    /// it (`all_rounds`) or just once, each time with the amount its
    /// request ids are moved up by: `i ×` the rank's requests per round
    /// in round `i`.
    pub(crate) fn rank_rounds(
        &self,
        rank: usize,
        all_rounds: bool,
    ) -> impl Iterator<Item = (ReqId, &[SchedOp])> + '_ {
        let (ops, per_round) = (&self.ops[rank], self.reqs[rank] as usize);
        let rounds = if all_rounds { self.rounds } else { 1 };
        (0..rounds).map(move |round| (req_id(round * per_round), ops.as_slice()))
    }

    /// Per rank, the flat operation stream.
    pub fn shape(&self) -> Vec<Vec<SchedOp>> {
        self.flattened().ops
    }

    /// The schedule of this program run `reps` times back to back. Only
    /// the round count is multiplied. The flat stream it stands for is
    /// each rank's operations tiled `reps` times, with the request ids of
    /// repetition `i` moved up by `i ×` the rank's requests per
    /// repetition — exactly what recording the `reps`-fold loop yields,
    /// since request ids are allocated in issue order and a valid
    /// program issues the same stream every time.
    #[must_use]
    pub fn repeated(&self, reps: usize) -> Schedule {
        if reps == 0 {
            return Schedule::empty(self.ranks());
        }
        Schedule {
            ops: self.ops.clone(),
            reqs: self.reqs.clone(),
            rounds: self.rounds * reps,
        }
    }

    /// This schedule with its rounds written out: one round holding the
    /// whole flat stream.
    pub(crate) fn flattened(&self) -> Schedule {
        Schedule {
            ops: (0..self.ranks())
                .map(|rank| {
                    self.rank_rounds(rank, true)
                        .flat_map(|(by, ops)| {
                            ops.iter().map(move |op| op.mapped(by, |peer| peer, 0))
                        })
                        .collect()
                })
                .collect(),
            reqs: self
                .reqs
                .iter()
                .map(|&per_round| req_id(self.rounds * per_round as usize))
                .collect(),
            rounds: 1,
        }
    }

    /// Appends `template` — a `members.len()`-rank program — as the
    /// sub-communicator `members` runs it after everything already in
    /// this schedule: template rank `g`'s flat stream goes to the end of
    /// world rank `members[g]`'s stream with peers mapped through
    /// `members`, tags moved up by `tag_base` and request ids moved up
    /// by what that world rank has issued so far. This is op for op
    /// what recording the program through a [`crate::GroupComm`] over
    /// `members` with tag base `tag_base` appends, without running it;
    /// ranks outside `members` are untouched. A schedule of several
    /// rounds is written out to one round first.
    ///
    /// Composing a step this way cannot add or hide a deadlock: take
    /// the lowest-index embedded program not yet complete — all its
    /// members have finished every earlier one, so they run it exactly
    /// as in isolation.
    ///
    /// # Errors
    ///
    /// What the [`crate::GroupComm`] recording would fail with, as
    /// [`RecordError::Sim`] with [`SimError::RankPanic`]: an invalid
    /// group (empty, a member outside this schedule's world, a
    /// duplicate) under rank 0, and a template that crosses the
    /// engine's barrier under the first member that does. The schedule
    /// is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `template` has not exactly one rank per member.
    pub fn embed(
        &mut self,
        template: &Schedule,
        members: &[usize],
        tag_base: Tag,
    ) -> Result<(), RecordError> {
        check_group(members, self.ranks())?;
        assert_eq!(
            template.ranks(),
            members.len(),
            "template ranks vs group members"
        );
        let crosses_barrier = |ops: &Vec<SchedOp>| ops.contains(&SchedOp::Barrier);
        if let Some(g) = template.ops.iter().position(crosses_barrier) {
            return Err(RecordError::Sim(SimError::RankPanic {
                rank: members[g],
                message: GROUP_BARRIER.to_owned(),
            }));
        }
        if self.rounds != 1 {
            *self = self.flattened();
        }
        for (g, &rank) in members.iter().enumerate() {
            let base = self.reqs[rank];
            for (by, ops) in template.rank_rounds(g, true) {
                let by = base + by;
                self.ops[rank].extend(
                    ops.iter()
                        .map(|op| op.mapped(by, |peer| members[peer], tag_base)),
                );
            }
            let issued = template.rounds * template.reqs[g] as usize;
            self.reqs[rank] = req_id(base as usize + issued);
        }
        Ok(())
    }
}

/// A request count as a request id.
fn req_id(n: usize) -> ReqId {
    ReqId::try_from(n).expect("request ids fit in 32 bits")
}

/// Checks that `members` is a rank group of a `world`-rank
/// communicator: not empty, every member inside the world, no
/// duplicates.
///
/// # Errors
///
/// [`RecordError::Sim`] with the [`SimError::RankPanic`] that recording
/// a program on the group reports: rank 0 (the first to construct the
/// [`crate::GroupComm`]) and its panic message.
pub fn check_group(members: &[usize], world: usize) -> Result<(), RecordError> {
    match group_fault(members, world) {
        None => Ok(()),
        Some(message) => Err(RecordError::Sim(SimError::RankPanic { rank: 0, message })),
    }
}

/// Why a program could not be compiled to a [`Schedule`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecordError {
    /// The program used a construct whose replay could diverge from a
    /// live run (a read of payload contents, an operation stream that
    /// changed between two executions of one rank).
    Unsupported {
        /// First rank found using the construct.
        rank: usize,
        /// Which construct it was.
        what: String,
    },
    /// The recording run itself failed.
    Sim(SimError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Unsupported { rank, what } => {
                write!(f, "rank {rank} used {what}, which cannot be replayed")
            }
            RecordError::Sim(e) => write!(f, "recording run failed: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// One `(src, dst, tag)` channel of the message board. Messages on a
/// channel are non-overtaking and receives are exact, so the k-th
/// receive posted on it matches the k-th send — the same one-shot
/// matching the timing DAG resolves at compile time.
#[derive(Debug)]
struct Channel {
    src: usize,
    tag: Tag,
    /// Lengths of the sends posted so far, in the sender's issue order.
    sent: Vec<usize>,
    /// Receives posted so far (the next receive's sequence number).
    recvs: usize,
}

/// The untimed message board the ranks of one recording share: which
/// sends exist, and nothing else — no clocks, no bytes.
#[derive(Debug, Default)]
struct Board {
    index: HashMap<(usize, usize, Tag), usize>,
    channels: Vec<Channel>,
    /// Total sends posted; a sweep that does not raise it made no
    /// progress.
    posted: usize,
}

impl Board {
    fn channel(&mut self, src: usize, dst: usize, tag: Tag) -> usize {
        *self.index.entry((src, dst, tag)).or_insert_with(|| {
            self.channels.push(Channel {
                src,
                tag,
                sent: Vec::new(),
                recvs: 0,
            });
            self.channels.len() - 1
        })
    }
}

/// What one rank has recorded so far. It outlives the rank's
/// individual executions: a re-execution walks the same log from the
/// top, checking its operations against the recorded prefix and
/// appending past it.
#[derive(Debug, Default)]
struct RankLog {
    ops: Vec<SchedOp>,
    /// Indexed by request id: the `(channel, sequence number)` of the
    /// message a receive request matches; `None` for send requests.
    matched: Vec<Option<(usize, usize)>>,
}

/// Why an execution of a rank's closure was cut short: the payload
/// [`RecCtx`] unwinds the closure with. It is raised with
/// `resume_unwind`, so the panic hook never sees it.
#[derive(Debug)]
enum Stop {
    /// Waiting on message `seq` of `channel`, which is not posted yet.
    Blocked { channel: usize, seq: usize },
    /// This execution issued an operation other than the one an earlier
    /// execution recorded at the same position.
    Diverged,
}

/// [`RecordError::Unsupported::what`] of a rank whose executions disagree.
const NON_DETERMINISTIC: &str = "a non-deterministic op stream";

/// [`RecordError::Unsupported::what`] of a rank that read a byte of a
/// symbolic buffer.
const CONTENT_ACCESS: &str = "the contents of a payload (recorded payloads are length-only)";

fn unwind(stop: Stop) -> ! {
    resume_unwind(Box::new(stop))
}

/// The symbolic recording context: a [`Comm`] that logs every
/// operation into a [`Schedule`] and satisfies receives from an untimed
/// message board (see [`record_schedule`] for what that means for the
/// recorded program).
#[derive(Debug)]
pub struct RecCtx<'a> {
    rank: usize,
    size: usize,
    board: &'a mut Board,
    log: &'a mut RankLog,
    /// Operations issued so far by this execution.
    cursor: usize,
    /// Allocated exactly as [`crate::Ctx`] does: one id per
    /// `isend`/`irecv`, in issue order, from zero.
    next_req: ReqId,
}

impl RecCtx<'_> {
    /// Logs `op`. Returns whether it is new, i.e. past what earlier
    /// executions of this rank recorded; an operation inside the
    /// recorded prefix must equal the one it repeats.
    fn record(&mut self, op: SchedOp) -> bool {
        let fresh = match self.log.ops.get(self.cursor) {
            Some(prev) if *prev == op => false,
            Some(_) => unwind(Stop::Diverged),
            None => {
                self.log.ops.push(op);
                true
            }
        };
        self.cursor += 1;
        fresh
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    fn record_wait(&mut self, reqs: Vec<ReqId>) {
        self.record(SchedOp::Wait { reqs });
    }

    /// Completes a receive from the board, or unwinds this execution
    /// if the matching send is not posted yet.
    fn complete_recv(&mut self, req: ReqId) -> Bytes {
        let (channel, seq) =
            self.log.matched[req as usize].expect("a receive request names a receive");
        match self.board.channels[channel].sent.get(seq) {
            Some(&len) => Bytes::symbolic(len),
            None => unwind(Stop::Blocked { channel, seq }),
        }
    }
}

impl Comm for RecCtx<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, dst: usize, tag: Tag, payload: Bytes) -> SendRequest {
        assert!(dst < self.size, "isend to rank {dst} of {}", self.size);
        let req = self.alloc_req();
        let len = payload.len();
        if self.record(SchedOp::Isend { req, dst, tag, len }) {
            let channel = self.board.channel(self.rank, dst, tag);
            self.board.channels[channel].sent.push(len);
            self.board.posted += 1;
            self.log.matched.push(None);
        }
        SendRequest { id: req }
    }

    fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        assert!(src < self.size, "irecv from rank {src} of {}", self.size);
        let req = self.alloc_req();
        if self.record(SchedOp::Irecv { req, src, tag }) {
            let channel = self.board.channel(src, self.rank, tag);
            let ch = &mut self.board.channels[channel];
            self.log.matched.push(Some((channel, ch.recvs)));
            ch.recvs += 1;
        }
        RecvRequest { id: req }
    }

    fn wait_send(&mut self, req: SendRequest) {
        self.record_wait(vec![req.id]);
    }

    fn wait_recv(&mut self, req: RecvRequest) -> Bytes {
        self.record_wait(vec![req.id]);
        self.complete_recv(req.id)
    }

    fn wait_all_sends(&mut self, reqs: Vec<SendRequest>) {
        // An empty waitall is a no-op in `Ctx` (no engine round-trip),
        // so it must record nothing.
        if !reqs.is_empty() {
            self.record_wait(reqs.iter().map(|r| r.id).collect());
        }
    }

    fn wait_all_recvs(&mut self, reqs: Vec<RecvRequest>) -> Vec<Bytes> {
        if reqs.is_empty() {
            return Vec::new();
        }
        self.record_wait(reqs.iter().map(|r| r.id).collect());
        reqs.iter().map(|r| self.complete_recv(r.id)).collect()
    }

    fn barrier(&mut self) {
        self.record(SchedOp::Barrier);
    }

    fn wtime(&mut self) -> SimTime {
        self.record(SchedOp::Wtime);
        SimTime::ZERO
    }
}

/// Compiles an SPMD program into a [`Schedule`] by executing it
/// symbolically, rank by rank, on the calling thread: no rank threads,
/// no timing engine, no fabric.
///
/// Ranks run in ascending order against a shared message board. A rank
/// that waits on a receive whose matching send is not posted yet is
/// unwound and run again from the top in the first later sweep over
/// the unfinished ranks that finds that send posted; sweeps repeat
/// until every rank has finished. `f`
/// therefore runs at least once per rank and possibly several times,
/// and must issue the same operations every time. A receive returns a
/// [symbolic](Bytes::symbolic) buffer of the matched send's exact
/// length, `wtime` reads [`SimTime::ZERO`], and `barrier` and send
/// completion never block — a deadlock
/// that exists only in time (a rendezvous send nobody receives)
/// surfaces when the schedule is first evaluated. Of `cluster` only
/// the rank capacity is read: schedules are cluster-independent.
///
/// # Errors
///
/// [`RecordError::Unsupported`] if the program read the contents of a
/// symbolic payload, or if a re-execution issued a different operation
/// than the execution before it.
/// [`RecordError::Sim`] with [`SimError::RankPanic`] if `f` panicked,
/// and with [`SimError::Deadlock`] if a whole sweep posted no new send
/// while ranks were still waiting (a receive cycle, or a receive with
/// no send at all), or if the ranks crossed different numbers of
/// barriers.
///
/// # Panics
///
/// Panics if `ranks` is zero or exceeds the cluster's process slots.
pub fn record_schedule<F>(
    cluster: &ClusterModel,
    ranks: usize,
    f: F,
) -> Result<Schedule, RecordError>
where
    F: Fn(&mut RecCtx<'_>) + Sync,
{
    check_ranks(cluster, ranks);
    let mut board = Board::default();
    let mut logs: Vec<RankLog> = (0..ranks).map(|_| RankLog::default()).collect();
    // Per unfinished rank, the `(channel, seq)` of the message its last
    // execution stopped at (`None` before the first).
    let mut unfinished: Vec<(usize, Option<(usize, usize)>)> =
        (0..ranks).map(|rank| (rank, None)).collect();
    while !unfinished.is_empty() {
        let posted_before = board.posted;
        // `(rank, channel, seq)` of every rank this sweep leaves waiting.
        let mut stuck = Vec::new();
        for &(rank, awaited) in &unfinished {
            // Until that message is posted a re-execution would replay
            // the recorded prefix and stop at the same wait.
            if let Some((channel, seq)) = awaited {
                if board.channels[channel].sent.len() <= seq {
                    stuck.push((rank, channel, seq));
                    continue;
                }
            }
            let mut rc = RecCtx {
                rank,
                size: ranks,
                board: &mut board,
                log: &mut logs[rank],
                cursor: 0,
                next_req: 0,
            };
            let run = catch_unwind(AssertUnwindSafe(|| f(&mut rc)));
            let cursor = rc.cursor;
            let unsupported = |what: &str| RecordError::Unsupported {
                rank,
                what: what.to_owned(),
            };
            match run.map_err(|panic| panic.downcast::<Stop>()) {
                Ok(()) if cursor == logs[rank].ops.len() => {}
                // Shorter than the execution before it.
                Ok(()) => return Err(unsupported(NON_DETERMINISTIC)),
                Err(Ok(stop)) => match *stop {
                    Stop::Blocked { channel, seq } => stuck.push((rank, channel, seq)),
                    Stop::Diverged => return Err(unsupported(NON_DETERMINISTIC)),
                },
                Err(Err(panic)) => {
                    let message = panic_message(panic.as_ref());
                    return Err(if message == SYMBOLIC_CONTENT_ACCESS {
                        unsupported(CONTENT_ACCESS)
                    } else {
                        RecordError::Sim(SimError::RankPanic { rank, message })
                    });
                }
            }
        }
        // Every rank left waiting stopped at a message that was not on
        // the board when it ran. If the board is what it was when the
        // sweep began, they would all stop there again.
        if board.posted == posted_before && !stuck.is_empty() {
            let detail = stuck
                .iter()
                .map(|&(rank, channel, seq)| {
                    let ch = &board.channels[channel];
                    format!(
                        "rank {rank}: blocked on receive #{seq} from rank {} tag {} ({} sent)",
                        ch.src,
                        ch.tag,
                        ch.sent.len()
                    )
                })
                .collect::<Vec<_>>()
                .join("; ");
            return Err(RecordError::Sim(SimError::Deadlock { detail }));
        }
        unfinished = stuck
            .into_iter()
            .map(|(rank, channel, seq)| (rank, Some((channel, seq))))
            .collect();
    }
    let barriers: Vec<usize> = logs
        .iter()
        .map(|log| {
            log.ops
                .iter()
                .filter(|op| matches!(op, SchedOp::Barrier))
                .count()
        })
        .collect();
    if let Some(rank) = (1..ranks).find(|&r| barriers[r] != barriers[0]) {
        return Err(RecordError::Sim(SimError::Deadlock {
            detail: format!(
                "rank 0 crosses {} barriers, rank {rank} crosses {}",
                barriers[0], barriers[rank]
            ),
        }));
    }
    Ok(Schedule {
        reqs: logs.iter().map(|log| req_id(log.matched.len())).collect(),
        ops: logs.into_iter().map(|log| log.ops).collect(),
        rounds: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn one_byte() -> Bytes {
        Bytes::from_static(b"x")
    }

    fn record_err(ranks: usize, f: impl Fn(&mut RecCtx<'_>) + Sync) -> RecordError {
        record_schedule(&ClusterModel::gros(), ranks, f).expect_err("recording must fail")
    }

    #[test]
    fn receive_cycle_is_a_deadlock_naming_ranks_and_channels() {
        let err = record_err(2, |rc| {
            let peer = 1 - rc.rank();
            let _ = rc.recv(peer, 7);
            rc.send(peer, 7, one_byte());
        });
        let RecordError::Sim(SimError::Deadlock { detail }) = err else {
            panic!("expected Deadlock, got {err:?}");
        };
        assert_eq!(
            detail,
            "rank 0: blocked on receive #0 from rank 1 tag 7 (0 sent); \
             rank 1: blocked on receive #0 from rank 0 tag 7 (0 sent)"
        );
    }

    #[test]
    fn receive_without_a_send_is_a_deadlock_after_the_others_finish() {
        let err = record_err(3, |rc| {
            if rc.rank() == 2 {
                let _ = rc.recv(0, 0);
                // Second message on the channel: never sent.
                let _ = rc.recv(0, 0);
            } else if rc.rank() == 0 {
                rc.send(2, 0, one_byte());
            }
        });
        let RecordError::Sim(SimError::Deadlock { detail }) = err else {
            panic!("expected Deadlock, got {err:?}");
        };
        assert_eq!(
            detail,
            "rank 2: blocked on receive #1 from rank 0 tag 0 (1 sent)"
        );
    }

    #[test]
    fn closure_panic_is_a_rank_panic_with_the_original_message() {
        let err = record_err(4, |rc| {
            if rc.rank() == 2 {
                panic!("boom on {}", rc.rank());
            }
        });
        assert_eq!(
            err,
            RecordError::Sim(SimError::RankPanic {
                rank: 2,
                message: "boom on 2".to_owned(),
            })
        );
        // Argument checks panic as `Ctx`'s do.
        let err = record_err(2, |rc| rc.send(2, 0, one_byte()));
        assert_eq!(
            err,
            RecordError::Sim(SimError::RankPanic {
                rank: 0,
                message: "isend to rank 2 of 2".to_owned(),
            })
        );
    }

    #[test]
    fn differing_barrier_counts_are_a_deadlock() {
        let err = record_err(3, |rc| {
            rc.barrier();
            if rc.rank() != 2 {
                rc.barrier();
            }
        });
        let RecordError::Sim(SimError::Deadlock { detail }) = err else {
            panic!("expected Deadlock, got {err:?}");
        };
        assert_eq!(detail, "rank 0 crosses 2 barriers, rank 2 crosses 1");
    }

    #[test]
    fn a_re_execution_that_changes_an_operation_is_unsupported() {
        // Rank 0 runs twice (its receive waits for rank 1, which has
        // not run in the first sweep); the second time the tag, the
        // length or the op count differs from what was recorded.
        let changed = |second: fn(&mut RecCtx<'_>)| {
            let runs = AtomicU32::new(0);
            record_err(2, |rc| {
                if rc.rank() == 1 {
                    rc.send(0, 9, one_byte());
                } else if runs.fetch_add(1, Ordering::Relaxed) == 0 {
                    let s = rc.isend(1, 0, one_byte());
                    let _ = rc.recv(1, 9);
                    rc.wait_send(s);
                } else {
                    second(rc);
                }
            })
        };
        for err in [
            changed(|rc| {
                let s = rc.isend(1, 1, one_byte());
                let _ = rc.recv(1, 9);
                rc.wait_send(s);
            }),
            changed(|rc| {
                let s = rc.isend(1, 0, Bytes::from_static(b"xy"));
                let _ = rc.recv(1, 9);
                rc.wait_send(s);
            }),
            changed(|rc| {
                let s = rc.isend(1, 0, one_byte());
                rc.wait_send(s);
            }),
            changed(|rc| {
                let _ = rc.isend(1, 0, one_byte());
            }),
        ] {
            let RecordError::Unsupported { rank: 0, what } = err else {
                panic!("expected Unsupported on rank 0, got {err:?}");
            };
            assert!(what.contains("non-deterministic op stream"), "got: {what}");
        }
    }

    #[test]
    fn a_rank_is_not_re_run_while_its_awaited_send_is_unposted() {
        // A relay down the ranks: rank r forwards to r-1 what it gets
        // from r+1, so the message rank 0 waits for is posted three
        // sweeps after it first stopped. Every rank runs once to its
        // wait and once more when its message is there, never between.
        use std::sync::atomic::AtomicUsize;
        let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let sched = record_schedule(&ClusterModel::gros(), 4, |rc| {
            let rank = rc.rank();
            runs[rank].fetch_add(1, Ordering::Relaxed);
            if rank < 3 {
                let _ = rc.recv(rank + 1, 0);
            }
            if rank > 0 {
                rc.send(rank - 1, 0, one_byte());
            }
        })
        .expect("records");
        let runs: Vec<usize> = runs.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        assert_eq!(runs, [2, 2, 2, 1]);
        assert_eq!(sched.total_ops(), 2 + 4 + 4 + 2);
    }

    #[test]
    fn reading_a_received_payload_is_unsupported_naming_the_rank() {
        // Rank 1 branches on data it was sent: which ops it issues next
        // is not a function of (rank, size, lengths), so there is no
        // schedule to record.
        let err = record_err(2, |rc| {
            if rc.rank() == 0 {
                rc.send(1, 0, Bytes::from_static(b"\x01"));
                let _ = rc.recv(1, 1);
            } else {
                let data = rc.recv(0, 0);
                if data[0] == 1 {
                    rc.send(0, 1, one_byte());
                }
            }
        });
        let RecordError::Unsupported { rank: 1, what } = err else {
            panic!("expected Unsupported on rank 1, got {err:?}");
        };
        assert!(what.contains("contents of a payload"), "got: {what}");
    }

    #[test]
    fn receives_are_symbolic_but_sized_exactly() {
        let sched = record_schedule(&ClusterModel::gros(), 2, |rc| {
            if rc.rank() == 0 {
                rc.send(1, 3, Bytes::from(vec![0xAB; 300]));
                rc.send(1, 3, Bytes::from(vec![0xCD; 5]));
            } else {
                let a = rc.irecv(0, 3);
                let b = rc.irecv(0, 3);
                // Waited out of order: matching is by posting order.
                let data_b = rc.wait_recv(b);
                let data_a = rc.wait_recv(a);
                assert!(data_a.is_symbolic() && data_b.is_symbolic());
                assert_eq!((data_a.len(), data_b.len()), (300, 5));
                assert_eq!(rc.wtime(), SimTime::ZERO);
            }
        })
        .expect("records");
        assert_eq!(sched.ranks(), 2);
        assert_eq!(sched.total_ops(), 4 + 5);
    }

    #[test]
    fn repeated_tiles_ops_and_shifts_request_ids() {
        let body = |rc: &mut RecCtx<'_>| {
            let peer = 1 - rc.rank();
            rc.barrier();
            let r = rc.irecv(peer, 0);
            let s = rc.isend(peer, 0, one_byte());
            rc.wait_send(s);
            let _ = rc.wait_all_recvs(vec![r]);
            let _ = rc.wtime();
        };
        let cluster = ClusterModel::gros();
        let one = record_schedule(&cluster, 2, body).expect("records");
        assert_eq!(one.repeated(1).shape(), one.shape());
        assert_eq!(one.repeated(0).ranks(), 2);
        assert_eq!(one.repeated(0).total_ops(), 0);
        for k in [2, 3, 5] {
            let looped =
                record_schedule(&cluster, 2, |rc| (0..k).for_each(|_| body(rc))).expect("records");
            assert_eq!(one.repeated(k).shape(), looped.shape(), "{k} repetitions");
        }
        let twice = one.repeated(2).shape();
        assert_eq!(
            twice[0][6..9],
            [
                SchedOp::Barrier,
                SchedOp::Irecv {
                    req: 2,
                    src: 1,
                    tag: 0
                },
                SchedOp::Isend {
                    req: 3,
                    dst: 1,
                    tag: 0,
                    len: 1
                },
            ]
        );
    }
}
