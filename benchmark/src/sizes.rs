//! The frozen workload sizes. They are part of the benchmark's
//! definition: changing one changes what every metric means, so a PR
//! that is judged by the benchmark may not touch them. Chosen so one
//! untraced run of a workload (its fresh processes, set-up and checks
//! included) takes 9–16 s on a 2-core host.

use crate::surface::Json;

/// Width of the library's job pool in every process; never above
/// `nproc` on the 2-core reference host.
pub const POOL_WIDTH: usize = 2;
/// Serving reader threads (closed loop: each waits for its reply).
pub const READERS: usize = 2;
/// Fresh child processes per untraced workload run; each end-to-end
/// metric is the median over them. Processes differ by ±10 % on this
/// kind of host (thread spawning, placement), more than the samples
/// within one do, so steadiness comes from more processes, not longer
/// ones.
pub const RUNS: usize = 5;

/// Process count of every tuning experiment (`TunerConfig::quick`).
pub const TUNE_P: usize = 8;

/// Held-out grid the selection quality is scored on: none of these
/// communicator or message sizes is on the tuning grid.
pub const HELD_OUT_P: [usize; 2] = [6, 12];
pub const HELD_OUT_M: [usize; 3] = [3 * 1024, 24 * 1024, 96 * 1024];

/// Consecutive `decide` calls timed as one latency sample.
pub const DECIDE_CHUNK: usize = 256;
/// Every n-th chunk of a reader is checked against the answer oracle.
pub const VERIFY_EVERY: usize = 8;
/// Reader 0 submits its first refit after this many of its own queries,
/// so a previous generation exists almost from the start…
pub const FIRST_REFIT_AT: u64 = 4 * DECIDE_CHUNK as u64;
/// …and one more every this many.
pub const REFIT_EVERY: u64 = 500_000;
/// Refit candidates tuned at set-up (seeds `seed+1..`), cycled through.
pub const REFIT_CANDIDATES: usize = 4;
/// The wide brown-out: from 1 ms of virtual serving time for longer
/// than any run lasts, 50× slowdown on the serving node.
pub const BROWNOUT_START_S: f64 = 0.001;
pub const BROWNOUT_DURATION_S: f64 = 1.0e6;
pub const BROWNOUT_SLOWDOWN: f64 = 50.0;

/// The two generated traces (`dp` and `pp`) and the tuned model that
/// picks their algorithms. The generator seed and the tuning seed are
/// part of the frozen geometry: together they fix which step shapes the
/// job has, and with them how much a cold replay must record and a warm
/// one evaluate (another tuning seed flips a few picks between
/// algorithms of very different simulation cost, which moved the warm
/// pass by ±20 %). `--seed` drives the replay noise.
pub const REPLAY_WORLD: usize = 24;
pub const REPLAY_STEPS: usize = 12;
pub const REPLAY_TRACE_SEED: u64 = 42;
pub const REPLAY_MODEL_SEED: u64 = 42;

/// The sizes as they go into the run record.
pub fn record() -> Json {
    let list = |v: &[usize]| Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect());
    Json::obj(vec![
        ("runs_per_workload", Json::Num(RUNS as f64)),
        ("tune_p", Json::Num(TUNE_P as f64)),
        ("held_out_p", list(&HELD_OUT_P)),
        ("held_out_m", list(&HELD_OUT_M)),
        ("decide_chunk", Json::Num(DECIDE_CHUNK as f64)),
        ("verify_every", Json::Num(VERIFY_EVERY as f64)),
        ("first_refit_at", Json::Num(FIRST_REFIT_AT as f64)),
        ("refit_every", Json::Num(REFIT_EVERY as f64)),
        ("refit_candidates", Json::Num(REFIT_CANDIDATES as f64)),
        ("brownout_start_s", Json::Num(BROWNOUT_START_S)),
        ("brownout_duration_s", Json::Num(BROWNOUT_DURATION_S)),
        ("brownout_slowdown", Json::Num(BROWNOUT_SLOWDOWN)),
        ("replay_world", Json::Num(REPLAY_WORLD as f64)),
        ("replay_steps", Json::Num(REPLAY_STEPS as f64)),
        ("replay_trace_seed", Json::Num(REPLAY_TRACE_SEED as f64)),
        ("replay_model_seed", Json::Num(REPLAY_MODEL_SEED as f64)),
    ])
}
