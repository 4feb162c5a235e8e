#!/usr/bin/env sh
# Hermetic CI gate: build, test, and lint the workspace with no network
# access. The workspace has zero external crate dependencies (see
# DESIGN.md), so --offline must always succeed from a clean checkout.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release (offline, warnings are errors)"
RUSTFLAGS='-D warnings' cargo build --offline --release --workspace

echo "==> cargo test (offline, warnings are errors)"
RUSTFLAGS='-D warnings' cargo test --offline --workspace -q

echo "==> determinism gate: integration tests again at COLLSEL_THREADS=2"
# Campaigns must be bit-identical at any thread count; running the
# workspace-level integration tests once more with a threaded pool
# catches any seed-derivation or ordering regression.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro

echo "==> compiled-vs-live equivalence gate: decision-serving suite at COLLSEL_THREADS=2"
# A compiled selector must be indistinguishable from its source on grid
# points and from its source at the snapped grid point (the highest grid
# value at or below the query, else the smallest) everywhere else, and the
# query cache must be transparent — for the model, traditional and
# fixed selector kinds on every collective; compiled lookup must also
# be no slower than the live ranking it replaces.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro --test service

echo "==> collective-breadth gate: per-collective differential suite at COLLSEL_THREADS=2"
# The compiled per-collective tables must match the live multi-collective
# ranking on- and off-grid, the timing DAG must agree bit-for-bit with
# the threaded oracle on every collective's measurement programs, and
# the reduce crossover golden test pins the fitted models to the
# osu_reduce winner ordering.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro --test collective_breadth

echo "==> threads-vs-dag gate: timing-DAG differential suite at COLLSEL_THREADS=2"
# The compiled timing-DAG backend must stay bit-identical to the
# thread-per-rank oracle — reports, traces, wtimes and error
# values — for all seven collectives, on and off the tuning grid,
# under fault plans and watchdog deadlines, at any thread budget.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-coll --test dag_equivalence

echo "==> replay determinism gate: trace-replay suite at COLLSEL_THREADS=2"
# Whole-trace replay (mixed collectives on overlapping rank groups)
# must produce bit-identical job completion times across both
# execution backends and any worker thread count, and the model-worst
# policy must never beat the tuned one.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro --test replay_determinism

echo "==> adaptive-campaign gate: differential suite at COLLSEL_THREADS=2"
# The adaptive planner (crossover bisection + leader-settled
# repetitions + warm-started hints) must produce the byte-identical
# decision table of the exhaustive sweep on both presets, stay
# bit-identical across thread counts, keep early-stopped means inside the full-precision 95% CI, and on
# noisy presets simulate at least 2x fewer batches than the sweep.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro --test adaptive_campaign

echo "==> soak gate: decision-server chaos suite at COLLSEL_THREADS=2"
# The full-size seeded soak under an active fault plan: >= 10k mixed
# queries across >= 3 hot swaps with zero invariant violations, the
# health gate rejecting a poisoned refit, and every fallback attributed.
COLLSEL_THREADS=2 RUSTFLAGS='-D warnings' \
    cargo test --offline -q -p collsel-repro --test soak

echo "==> pinned-values gate: tune-cold and replay-cold at seed 42 must reproduce the pinned results, and serve-* and a traced tune-cold must pass"
# The benchmark digests the model JSON of both presets. Schedules feed
# DAGs feed samples feed fits, so a recorder (or any other) change that
# alters a single recorded op shifts a fit and changes a digest here,
# instead of silently moving a decision table. The step path (each
# trace step composed from per-collective templates, the equal of
# run_step over GroupComm recorded whole) is pinned the same way by the
# tuned policy's JCT over the replayed traces: one changed step schedule
# moves a step makespan and with it this sum. The pinned values are
# what the commit before length-only payloads printed (JCT) and what the
# model-file version 2 change printed (digests): it moved them by
# re-encoding the model JSON (broadcast's fits stored once under
# `collectives`, the measurement segments stored as `seg_size` and
# `breadth_seg_size`), with every fit and decision table unchanged.
# Re-derive them from the parent commit when a change is *meant* to
# move them.
DIGEST_GROS=784f77453f569027
DIGEST_GRISOU=c7ccd05bc39a8c38
JCT_TUNED_MS=14.699762
cargo build --offline --release --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark
# The benchmark's own unit tests, so a library change that breaks the
# benchmark's checks fails here, before the benchmark runs.
cargo test --offline -q --manifest-path benchmark/Cargo.toml --target-dir target/benchmark
# pinned WORKLOAD WANT...: the workload exits 0 and prints every
# "exact WANT" line.
pinned() {
    workload=$1; shift
    out=$(./target/benchmark/release/collsel-benchmark \
        --workload "$workload" --seed 42 --seconds 1 --runs 1) || {
        echo "ci.sh: benchmark $workload failed" >&2; exit 1;
    }
    for want in "$@"; do
        echo "$out" | grep -qF "exact $want" || {
            echo "ci.sh: benchmark $workload did not print '$want'" >&2
            echo "$out" | grep -F "exact " >&2
            exit 1
        }
    done
}
pinned tune-cold "model_digest.gros = $DIGEST_GROS" "model_digest.grisou = $DIGEST_GRISOU"
pinned replay-cold "expt.jct_tuned_ms = $JCT_TUNED_MS"
# The serving workloads pin no value, only their exit code: 0 means every
# sampled answer equals its generation's tables and the server's source
# counters partition the answers, under concurrent readers and hot swaps.
pinned serve-calm
pinned serve-brownout
# Only a traced tune-cold checks that the layer walk accounts for the
# estimation stages and that adaptive campaigns rebuild the exhaustive
# tables; it must exit 0 too. The accounting check compares two ~20 ms
# wall times with a 10 % margin, so on a 2-core host it fails about one
# run in ten with no code change (ROADMAP 8(d)).
./target/benchmark/release/collsel-benchmark --workload tune-cold --seed 42 \
    --seconds 1 --runs 1 --trace 1 > /dev/null || {
    echo "ci.sh: traced benchmark tune-cold failed" >&2; exit 1;
}

echo "==> counted gate: a cold replay at the benchmark geometry records 38 collective templates"
# The same four (trace, policy) replays as replay-cold, in a process of
# their own so the memo counters are exact: 530 group calls in 48 step
# shapes must run the recorder for exactly 38 collectives, and a second
# pass for none.
RUSTFLAGS='-D warnings' cargo test --offline -q -p collsel-repro --test replay_templates

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (offline, every workspace target, warnings are errors)"
# The workspace only: benchmark/ is a package of its own and is not linted here.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (offline, rustdoc warnings are errors)"
# Broken or private intra-doc links fail here instead of accumulating.
RUSTDOCFLAGS='-D warnings' cargo doc --offline --workspace --no-deps

echo "==> unwrap/expect ratchet (one ceiling per crate)"
# Fallible library paths must propagate errors or carry a documented
# invariant comment. This ratchet only ever goes DOWN: if you add an
# unwrap()/expect() to a crate, justify it as an invariant and
# bump its ceiling consciously; if you removed some, lower it.
# The history below is of the single estim + expt ceiling it replaced.
# 44 = 40 + the breadth additions: one documented invariant in
# expt::breadth (every collective has >= 1 algorithm) and three in
# test code.
# 50 = 44 + the soak harness: the documented boot-tune panic contract
# of expt::soak::run_soak, three lock/join poisoning propagations in
# the same function (a panicked soak thread must fail the soak), and
# two in test code.
# 54 = 50 + the adaptive campaign planner: two documented invariants in
# estim::campaign (a measurement program cannot deadlock; plan endpoints
# are always measured before interior fill) and two in test code.
# 60 = 54 + the timing-DAG tier: two lock-poisoning propagations in the
# estim::memo compiled-DAG store (a panicked recorder must fail the
# run, not serve a half-built cache), two recording invariants on the
# DAG fast paths (a measurement program cannot deadlock), and two in
# test code.
# 59 = 60 - 1: the replay step memo shares one lock-poisoning
# propagation helper with the cell memo instead of repeating the
# expect at every lock site.
# 46 = 59 - 13: estim::measure holds the sampler and the retry loop
# once, so the "a measurement program cannot deadlock" and "at least
# one attempt ran" invariants are stated once each instead of once per
# duplicated program body (and once more in estim::campaign).
# 41 = 46 - 5: expt::breadth is deleted (one documented invariant and
# two in test code), and the merged α/β estimator's tests compare whole
# outcome maps instead of unwrapping fault-free fits (two in test code).
# 35 = 41 - 6: one estimation pipeline with an optional retry policy
# states "an unwatched measurement cannot fail" once, in
# estim::measure::unwatched (the sampler's and the LogGP probe's
# deadlock invariants go), trimmed_mean is deleted, and the tier tests
# compare outcomes instead of unwrapping them (three in test code).
# 31 = 35 - 4: expt::campaign's coverage renderer is deleted with its
# three rendering tests (three in test code), and the budget-free
# crossover planner resolves every index by measurement or
# interpolation, so its "endpoint is always measured" left-snap fill goes.
# 30 = 31 - 1, then one ceiling per crate: the LogGP probe's expect
# leaves estim, and a joint ceiling let one crate grow while another
# shrank and left seven crates unchecked, so every crate under
# crates/*/src now has its own (a crate without one fails the gate).
# coll drops by the barrier tests' three and one barrier recording; select
# gains two documented "generated tables compile" invariants now that
# CompiledCollectiveSelector::from_tables is fallible, and one in test code.
# select 24, core 9: the decision table is one type tabulated straight
# from the grid, so both "generated tables compile" invariants, the
# campaign shim's two grid-position lookups and one journal-test write
# go, and the campaign resolves one planned-collective position.
# select 22: the decision JSON's round-trip test (two in test code) goes
# with the JSON it tested.
# mpi 45 = 53 - 8: exact point-to-point only. Wait-any's four (the
# engine's winner pick and removal, the rank's completion and index
# lookups), the receive status's origin, the group's source translation
# and the completion-to-payload unwrap go with the surface that needed
# them (the engine now hands a wait its payloads), and the engine takes
# an unexpected message straight out of its queue.
# support 32 = 34 - 2: the epoch-swap stress and drain tests run on
# scoped threads and barriers, so their two joins go (in test code).
UNWRAP_CEILINGS="coll=63 core=9 estim=10 expt=20 model=1 mpi=45 netsim=22 select=22 support=32"
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    ceiling=$(echo "$UNWRAP_CEILINGS" | tr ' ' '\n' | sed -n "s/^$crate=//p")
    if [ -z "$ceiling" ]; then
        echo "ci.sh: crate $crate has no unwrap/expect ceiling" >&2
        exit 1
    fi
    count=$(grep -rc 'unwrap()\|\.expect(' "$dir" --include='*.rs' \
        | awk -F: '{s+=$2} END {print s}')
    if [ "$count" -gt "$ceiling" ]; then
        echo "ci.sh: $crate unwrap/expect count $count exceeds ceiling $ceiling" >&2
        exit 1
    fi
    echo "    $crate: $count occurrences (ceiling $ceiling)"
done

echo "==> hidden-state gate: no thread-locals, a ratchet on statics"
# No result may depend on hidden process-global state. Thread-local
# state is banned outright; named statics (the memo stores, the pool's
# thread override, the payload cache and its counters) are a ratchet
# that only ever goes DOWN. The pattern is anchored on the `NAME:` form
# so help text that starts with the word "static" does not count.
if grep -rn 'thread_local!' crates/*/src; then
    echo "ci.sh: thread_local! state found (listed above)" >&2
    exit 1
fi
STATIC_CEILING=7
count=$(grep -rE 'static [A-Z_][A-Z0-9_]*:' crates/*/src | wc -l)
if [ "$count" -gt "$STATIC_CEILING" ]; then
    echo "ci.sh: $count static items exceed ceiling $STATIC_CEILING" >&2
    grep -rnE 'static [A-Z_][A-Z0-9_]*:' crates/*/src >&2
    exit 1
fi
echo "    $count static items (ceiling $STATIC_CEILING)"

echo "==> shim gate: the two old selector names gain no callers"
# `GracefulCollectiveSelector` and `TunedModel::degraded_multi_selector`
# are one-line aliases of the one model selector, kept only because the
# benchmark/ package names them (ROADMAP 8(a) deletes them). Outside
# their own definitions nothing in the workspace may name them.
callers=$(grep -rn 'GracefulCollectiveSelector\|degraded_multi_selector' crates src tests examples \
    | grep -v 'pub type GracefulCollectiveSelector = CollectiveModelSelector;$' \
    | grep -v 'pub fn degraded_multi_selector(&self) -> CollectiveModelSelector {$' || true)
if [ -n "$callers" ]; then
    echo "ci.sh: the old selector names have callers:" >&2
    echo "$callers" >&2
    exit 1
fi

echo "==> exact point-to-point gate: no wildcard, wait-any or compute surface comes back"
# Every ported collective is a set of point-to-point calls with an exact
# source and tag, and that is the whole `Comm` surface: a receive
# wildcard, a wait-any, a receive status, a second op type beside
# `SchedOp` or a compute op would make matching depend on timing again
# or carry a second vocabulary for one concept.
if grep -rnE 'Peer::|TagSel|RecvStatus|wait_any_recv|WaitMode|OpShape|fn compute' \
    crates src tests examples; then
    echo "ci.sh: removed point-to-point surface is named again (listed above)" >&2
    exit 1
fi

echo "==> doc-names gate: every identifier the docs name exists in the code"
# Every backticked Rust identifier or path in the prose docs must occur
# as a word in the sources (each `::` segment is checked), so a rename
# or deletion cannot leave the docs describing code that is gone.
# Allowlist: names from outside this repo, i.e. Open MPI's coll_tuned
# component and its dynamic-rules file, the crates the zero-dependency
# policy turns down, and std::sync.
code_words=$(mktemp)
grep -rhoE '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src \
    | sort -u > "$code_words"
stale=$(grep -noE '`[^`]+`' DESIGN.md README.md EXPERIMENTS.md | awk -v words="$code_words" '
    BEGIN { while ((getline w < words) > 0) known[w] = 1 }
    {
        i = index($0, "`")
        where = substr($0, 1, i - 2)
        tok = substr($0, i + 1, length($0) - i - 1)
        sub(/\(\)$/, "", tok)
        if (tok !~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$/) next
        if (tok ~ /^(coll_tuned|coll_tuned_dynamic_rules|crossbeam|parking_lot)$/) next
        if (tok ~ /^std::sync/) next
        n = split(tok, seg, "::")
        for (k = 1; k <= n; k++) {
            if (!(seg[k] in known)) { print where ": `" tok "`"; next }
        }
    }')
rm -f "$code_words"
if [ -n "$stale" ]; then
    echo "ci.sh: the docs name identifiers the code does not have:" >&2
    echo "$stale" >&2
    exit 1
fi

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> paper-artifact gate: committed results/ equal a fresh repro run"
# Every committed table and figure must be what the code produces:
# repro regenerates all five at paper fidelity (about ten seconds) and
# any byte of difference fails the gate. After a change that is meant
# to move them, regenerate with ./target/release/repro --out results all.
./target/release/repro --out "$smoke_dir/results" all > /dev/null
diff -r results "$smoke_dir/results"

# pinned_model FILE WANT: the model file's `cksum` (CRC and byte count)
# is WANT. The fault-tolerant tier is deterministic per seed and thread
# count, so a change to retry, rescue or skip behaviour moves these. Both
# values are what the commit before the estimation pipeline was folded
# into one body with an optional retry policy printed; re-derive them
# from the parent commit when a change is *meant* to move them.
pinned_model() {
    got=$(cksum < "$1")
    [ "$got" = "$2" ] || {
        echo "ci.sh: $1 has cksum '$got', want '$2'" >&2; exit 1;
    }
}

echo "==> colltune fault-injection smoke run (pinned model)"
./target/release/colltune tune --preset gros --tune-p 8 -j 1 \
    --faults chaos:7 --out "$smoke_dir/model.json"
pinned_model "$smoke_dir/model.json" "3572390180 9925"
./target/release/colltune query --model "$smoke_dir/model.json" \
    --p 64 --m 8192 --m 1048576

echo "==> memory fence: paper-scale gros tune of every collective in bounded memory (pinned model)"
# A measurement batch is one recorded round looped by the DAG evaluator,
# so the paper-scale campaign holds one round per cell, not min_reps
# copies: about 1.5 GB peak, against 5 GB when rounds were tiled. The
# fence sits at 2048 MiB (colltune reports VmHWM); the cksum is what the
# commit before looped rounds wrote, so the fence also proves the
# answers unchanged.
PAPER_RSS_CEILING_MIB=2048
./target/release/colltune tune --preset gros --paper --collective all -j 2 \
    --out "$smoke_dir/paper-all.json" 2> "$smoke_dir/paper-all.log" || {
    cat "$smoke_dir/paper-all.log" >&2; exit 1;
}
rss=$(sed -n 's/^\[colltune\] peak RSS \([0-9]*\) MiB$/\1/p' "$smoke_dir/paper-all.log")
[ -n "$rss" ] || {
    echo "ci.sh: colltune tune printed no peak RSS line" >&2; exit 1;
}
[ "$rss" -le "$PAPER_RSS_CEILING_MIB" ] || {
    echo "ci.sh: paper-scale tune peaked at $rss MiB, ceiling $PAPER_RSS_CEILING_MIB MiB" >&2; exit 1;
}
echo "    peak RSS $rss MiB (ceiling $PAPER_RSS_CEILING_MIB MiB)"
pinned_model "$smoke_dir/paper-all.json" "1713615199 121677"

echo "==> colltune collective-breadth smoke run (reduce, under faults, pinned model)"
./target/release/colltune tune --preset gros --tune-p 8 -j 1 \
    --collective reduce --faults chaos:7 --out "$smoke_dir/breadth.json"
pinned_model "$smoke_dir/breadth.json" "1341023299 23295"
./target/release/colltune query --model "$smoke_dir/breadth.json" \
    --collective reduce --p 64 --m 8192 --m 1048576

echo "==> colltune replay smoke run (generated trace, JCT policy comparison)"
# A seeded data-parallel trace replayed under all four policies (the
# server policy drives a live DecisionServer lookup per call); the CSV
# must carry one row per policy plus the header.
COLLSEL_THREADS=2 ./target/release/colltune tune --preset gros --tune-p 8 \
    --collective all --out "$smoke_dir/replay-model.json"
COLLSEL_THREADS=2 ./target/release/colltune replay --gen dp --steps 4 \
    --model "$smoke_dir/replay-model.json" --selector all \
    --json "$smoke_dir/replay.json" --csv "$smoke_dir/replay.csv"
[ "$(wc -l < "$smoke_dir/replay.csv")" -eq 5 ] || {
    echo "ci.sh: replay CSV must have 4 policy rows" >&2; exit 1;
}
grep -q '"template_misses"' "$smoke_dir/replay.json" || {
    echo "ci.sh: replay JSON missing the memo block's template counters" >&2; exit 1;
}
# The same model exports one Open MPI rules block per collective, each
# under its own COLL_TUNED id. The file's cksum is what the commit
# before the decision table became one type wrote, so the export is
# pinned byte for byte.
./target/release/colltune export --model "$smoke_dir/replay-model.json" \
    --out "$smoke_dir/rules.conf"
ids=$(grep '# collective id' "$smoke_dir/rules.conf" | awk '{print $1}' | sort -n | tr '\n' ' ')
[ "$ids" = "0 2 3 7 9 11 14 " ] || {
    echo "ci.sh: export wrote collective ids '$ids', want '0 2 3 7 9 11 14 '" >&2; exit 1;
}
pinned_model "$smoke_dir/rules.conf" "450707696 3537"

echo "==> colltune serve smoke run (short soak with journal recovery)"
# A short seeded soak with hot swaps, a poisoned refit, and the fault
# plan's brown-outs; the command exits non-zero on any invariant
# violation and verifies crash-only recovery from the journal.
COLLSEL_THREADS=2 ./target/release/colltune serve \
    --queries 4000 --threads 2 --refits 3 \
    --journal "$smoke_dir/serve-journal.json" --json "$smoke_dir/serve-report.json"
test -f "$smoke_dir/serve-journal.json" || {
    echo "ci.sh: serve journal missing" >&2; exit 1;
}
# The soak is seeded, so its answer counts are pinned (the report's
# top-level fields, two-space indented): 2 installed swaps, 1 poisoned
# refit rejected, 10 attributed fallbacks.
for want in '"swaps": 2,' '"rejected_refits": 1,' '"fallbacks": 10,'; do
    grep -qxF "  $want" "$smoke_dir/serve-report.json" || {
        echo "ci.sh: serve report lacks '$want'" >&2
        grep -E '^  "(swaps|rejected_refits|fallbacks)"' "$smoke_dir/serve-report.json" >&2
        exit 1
    }
done

echo "ci.sh: all green"
