//! Workload traces: a training job as a sequence of steps, each a mix
//! of collectives at mixed sizes on overlapping sub-communicators.
//!
//! The paper scores algorithms per collective call; what users of a
//! selection service feel is end-to-end job time over mixed traffic.
//! A [`Trace`] captures that traffic shape the way ML training frames
//! it: the world's ranks are cut into dp/tp/pp-style [`RankGroup`]s
//! (data-parallel replicas strided across tensor-parallel blocks,
//! pipeline stages as adjacent pairs), and each [`Step`] issues one
//! collective per participating group. Traces serialise to JSON (the
//! `colltune replay` input format) and are replayed by
//! [`crate::replay`], which scores any selector by total job
//! completion time.
//!
//! [`TraceGen`] generates seeded random traces from two presets —
//! data-parallel allreduce-heavy and pipeline-parallel bcast-heavy —
//! and [`canned_dp`]/[`canned_pp`] fix the seeds for the determinism
//! gates.

use collsel::coll::Collective;
use collsel_support::json_struct;
use collsel_support::rng::splitmix64_below;

/// A named sub-communicator: an ascending, duplicate-free subset of
/// the world's ranks. Group rank 0 (the lowest member) is the root of
/// any rooted collective run on the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankGroup {
    /// Display name, e.g. `"dp0"` or `"world"`.
    pub name: String,
    /// Global member ranks, ascending.
    pub ranks: Vec<usize>,
}

json_struct!(RankGroup { name, ranks });

/// One collective call of a step, bound to a group by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCall {
    /// Index into [`Trace::groups`].
    pub group: usize,
    /// Which collective to run.
    pub collective: Collective,
    /// Message size in bytes
    /// ([`collsel::coll::run_collective`]'s convention).
    pub m: usize,
}

json_struct!(TraceCall {
    group,
    collective,
    m
});

/// One training step: its calls are issued together (each in its own
/// tag window) and the step ends when every group member finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The step's collective calls, in issue order.
    pub calls: Vec<TraceCall>,
}

json_struct!(Step { calls });

/// A full workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Display name (preset + seed for generated traces).
    pub name: String,
    /// Global communicator size.
    pub world: usize,
    /// The sub-communicators the steps reference.
    pub groups: Vec<RankGroup>,
    /// The step sequence.
    pub steps: Vec<Step>,
}

json_struct!(Trace {
    name,
    world,
    groups,
    steps
});

impl Trace {
    /// Checks structural invariants: a positive world, at least one
    /// step, every group non-empty / ascending / in-world, and every
    /// call referencing an existing group.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.world == 0 {
            return Err("trace world must be positive".into());
        }
        if self.steps.is_empty() {
            return Err("trace has no steps".into());
        }
        for (gi, g) in self.groups.iter().enumerate() {
            if g.ranks.is_empty() {
                return Err(format!("group {gi} ({}) is empty", g.name));
            }
            for w in g.ranks.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!(
                        "group {gi} ({}) ranks must be strictly ascending",
                        g.name
                    ));
                }
            }
            if g.ranks.last().is_some_and(|&last| last >= self.world) {
                return Err(format!(
                    "group {gi} ({}) exceeds world of {}",
                    g.name, self.world
                ));
            }
        }
        for (si, step) in self.steps.iter().enumerate() {
            if step.calls.is_empty() {
                return Err(format!("step {si} has no calls"));
            }
            for call in &step.calls {
                if call.group >= self.groups.len() {
                    return Err(format!(
                        "step {si} references group {} of {}",
                        call.group,
                        self.groups.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Total collective calls across all steps.
    pub fn total_calls(&self) -> usize {
        self.steps.iter().map(|s| s.calls.len()).sum()
    }
}

/// Trace generator presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePreset {
    /// Data-parallel training: strided dp groups run large gradient
    /// allreduces every step, contiguous tp blocks mix in medium
    /// allgathers and alltoalls, and a periodic small global allreduce
    /// models a gradient-norm check.
    DataParallel,
    /// Pipeline-parallel training: adjacent 2-rank stage groups pass
    /// activations with broadcasts (a group bcast at P=2 is the p2p
    /// stage hand-off), with a periodic global parameter bcast and a
    /// small global loss allreduce.
    Pipeline,
}

impl TracePreset {
    /// The preset's name as spelled on the `colltune replay --gen`
    /// flag.
    pub fn name(self) -> &'static str {
        match self {
            TracePreset::DataParallel => "dp",
            TracePreset::Pipeline => "pp",
        }
    }

    /// Parses a `--gen` preset name.
    pub fn parse(s: &str) -> Option<TracePreset> {
        match s {
            "dp" => Some(TracePreset::DataParallel),
            "pp" => Some(TracePreset::Pipeline),
            _ => None,
        }
    }
}

/// Seeded trace generator: the trace is a pure function of the four
/// fields, bit-identical across runs, platforms and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGen {
    /// Which traffic shape to generate.
    pub preset: TracePreset,
    /// Global communicator size (at least 2).
    pub world: usize,
    /// Number of steps.
    pub steps: usize,
    /// Randomness seed.
    pub seed: u64,
}

/// Draws `base << e` bytes with `e` uniform in `0..exps` — the same
/// log-spaced size grid the tuning sweeps use, without modulo bias.
fn log_size(state: &mut u64, base: usize, exps: u64) -> usize {
    base << splitmix64_below(state, exps)
}

impl TraceGen {
    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if `world < 2` or `steps == 0`.
    pub fn generate(&self) -> Trace {
        assert!(self.world >= 2, "need at least two ranks");
        assert!(self.steps > 0, "need at least one step");
        let trace = match self.preset {
            TracePreset::DataParallel => self.gen_dp(),
            TracePreset::Pipeline => self.gen_pp(),
        };
        trace
            .validate()
            .unwrap_or_else(|e| panic!("generated trace is invalid: {e}"));
        trace
    }

    /// The tensor-parallel block width for a dp/tp cut of `world`.
    fn tp_width(world: usize) -> usize {
        if world.is_multiple_of(4) {
            4
        } else if world.is_multiple_of(2) {
            2
        } else {
            1
        }
    }

    fn gen_dp(&self) -> Trace {
        let w = self.world;
        let t = Self::tp_width(w);
        let mut groups = vec![RankGroup {
            name: "world".into(),
            ranks: (0..w).collect(),
        }];
        // Contiguous tensor-parallel blocks: [0..t), [t..2t), ...
        let tp_start = groups.len();
        let tp_count = w / t;
        if t > 1 {
            for b in 0..tp_count {
                groups.push(RankGroup {
                    name: format!("tp{b}"),
                    ranks: (b * t..(b + 1) * t).collect(),
                });
            }
        }
        // Strided data-parallel groups: {j, j+t, j+2t, ...} — one per
        // position within a tp block, overlapping every tp group.
        let dp_start = groups.len();
        let dp_count = if tp_count > 1 { t } else { 0 };
        for j in 0..dp_count {
            groups.push(RankGroup {
                name: format!("dp{j}"),
                ranks: (0..tp_count).map(|r| r * t + j).collect(),
            });
        }

        let mut state = self.seed ^ 0xD0D0_0001;
        let mut steps = Vec::with_capacity(self.steps);
        for s in 0..self.steps {
            let mut calls = Vec::new();
            // A tp collective leads each step (activation exchange).
            if t > 1 {
                for b in 0..tp_count {
                    let collective = if splitmix64_below(&mut state, 2) == 0 {
                        Collective::Allgather
                    } else {
                        Collective::Alltoall
                    };
                    calls.push(TraceCall {
                        group: tp_start + b,
                        collective,
                        m: log_size(&mut state, 4 * 1024, 4), // 4..32 KB
                    });
                }
            }
            // The gradient allreduce dominates: one per dp group (or on
            // the world when there is no dp/tp cut).
            let grad_m = log_size(&mut state, 128 * 1024, 4); // 128 KB..1 MB
            if dp_count > 0 {
                for j in 0..dp_count {
                    calls.push(TraceCall {
                        group: dp_start + j,
                        collective: Collective::Allreduce,
                        m: grad_m,
                    });
                }
            } else {
                calls.push(TraceCall {
                    group: 0,
                    collective: Collective::Allreduce,
                    m: grad_m,
                });
            }
            // Every fourth step: a small global gradient-norm check.
            if s % 4 == 3 {
                calls.push(TraceCall {
                    group: 0,
                    collective: Collective::Allreduce,
                    m: 64,
                });
            }
            steps.push(Step { calls });
        }
        Trace {
            name: format!("dp-w{}-s{}-seed{}", w, self.steps, self.seed),
            world: w,
            groups,
            steps,
        }
    }

    fn gen_pp(&self) -> Trace {
        let w = self.world;
        let mut groups = vec![RankGroup {
            name: "world".into(),
            ranks: (0..w).collect(),
        }];
        // Overlapping pipeline stage pairs: {0,1}, {1,2}, ..., {w-2,w-1}.
        let pair_start = groups.len();
        for i in 0..w - 1 {
            groups.push(RankGroup {
                name: format!("pp{i}"),
                ranks: vec![i, i + 1],
            });
        }

        let mut state = self.seed ^ 0xD0D0_0002;
        let mut steps = Vec::with_capacity(self.steps);
        for s in 0..self.steps {
            let mut calls = Vec::new();
            // Alternate stage parity so consecutive hand-offs overlap
            // like 1F1B scheduling: even pairs one step, odd the next.
            let parity = s % 2;
            for i in (parity..w - 1).step_by(2) {
                calls.push(TraceCall {
                    group: pair_start + i,
                    collective: Collective::Bcast,
                    m: log_size(&mut state, 16 * 1024, 4), // 16..128 KB
                });
            }
            if calls.is_empty() {
                // w == 2 with odd parity: fall back to the single pair.
                calls.push(TraceCall {
                    group: pair_start,
                    collective: Collective::Bcast,
                    m: log_size(&mut state, 16 * 1024, 4),
                });
            }
            // Every eighth step: a global parameter broadcast.
            if s % 8 == 7 {
                calls.push(TraceCall {
                    group: 0,
                    collective: Collective::Bcast,
                    m: log_size(&mut state, 256 * 1024, 3), // 256 KB..1 MB
                });
            }
            // Every fourth step: a small global loss allreduce.
            if s % 4 == 3 {
                calls.push(TraceCall {
                    group: 0,
                    collective: Collective::Allreduce,
                    m: 256,
                });
            }
            steps.push(Step { calls });
        }
        Trace {
            name: format!("pp-w{}-s{}-seed{}", w, self.steps, self.seed),
            world: w,
            groups,
            steps,
        }
    }
}

/// The canned data-parallel trace the determinism gates replay: 12
/// ranks (3 tensor blocks × 4 replicas), 8 steps, fixed seed.
pub fn canned_dp() -> Trace {
    TraceGen {
        preset: TracePreset::DataParallel,
        world: 12,
        steps: 8,
        seed: 42,
    }
    .generate()
}

/// The canned pipeline-parallel trace the determinism gates replay: 8
/// stages, 12 steps, fixed seed.
pub fn canned_pp() -> Trace {
    TraceGen {
        preset: TracePreset::Pipeline,
        world: 8,
        steps: 12,
        seed: 42,
    }
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_support::{FromJson, Json, ToJson};

    #[test]
    fn generation_is_seed_deterministic() {
        for preset in [TracePreset::DataParallel, TracePreset::Pipeline] {
            let gen = TraceGen {
                preset,
                world: 8,
                steps: 6,
                seed: 7,
            };
            assert_eq!(gen.generate(), gen.generate());
            let other = TraceGen { seed: 8, ..gen };
            assert_ne!(gen.generate(), other.generate(), "seed must matter");
        }
    }

    #[test]
    fn canned_traces_validate_and_round_trip() -> Result<(), String> {
        for trace in [canned_dp(), canned_pp()] {
            trace.validate()?;
            let json = trace.to_json().to_string_pretty();
            let back = Trace::from_json(&Json::parse(&json).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            assert_eq!(trace, back);
        }
        Ok(())
    }

    #[test]
    fn dp_groups_overlap_tp_groups() {
        let t = canned_dp();
        let tp: Vec<_> = t
            .groups
            .iter()
            .filter(|g| g.name.starts_with("tp"))
            .collect();
        let dp: Vec<_> = t
            .groups
            .iter()
            .filter(|g| g.name.starts_with("dp"))
            .collect();
        assert!(!tp.is_empty() && !dp.is_empty());
        for d in &dp {
            for b in &tp {
                let shared = d.ranks.iter().filter(|r| b.ranks.contains(r)).count();
                assert_eq!(shared, 1, "each dp group meets each tp block once");
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        let mut t = canned_dp();
        t.steps[0].calls[0].group = 999;
        assert!(t.validate().is_err());
        let mut t = canned_dp();
        t.groups[0].ranks = vec![5, 3];
        assert!(t.validate().is_err());
        let mut t = canned_pp();
        t.world = 2;
        assert!(t.validate().is_err(), "groups now exceed the world");
    }
}
