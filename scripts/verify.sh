#!/usr/bin/env bash
# Hermetic end-to-end verification, fully offline. Every test and
# repository invariant runs in the one test step of `all`, the same
# command as tier-1; the rest of this script is what needs a release
# build, real processes over loopback TCP, or a bench. Any failure
# exits nonzero.
#
# Usage: scripts/verify.sh [all|cluster|netchaos|bench|backends]
#   all      (default) release build, the test suite, clippy, rustfmt,
#            rustdoc, the quickstart and corruption-smoke examples, a
#            perfbench build, then every gate below
#   cluster  a 3-node fleet behind the router: one node killed under
#            traffic, the keeper promotes a respawned replacement from
#            its shipped replica, the ledger still balances and the
#            fleet dashboard still merges
#   netchaos a live fleet grows and shrinks through `route --admin-file`
#            while traffic flows, and the ledger still balances
#   bench    the zero-overhead-when-disabled telemetry check, then the
#            baseline bench emitting BENCH_<git-short-sha>.json and
#            diffing it against the newest tracked baseline (>10%
#            single-predict regression fails)
#   backends an unknown --backend fails fast and lists the catalog, then
#            every name `simulate backends` lists serves a replay,
#            drains with nothing rejected, and warm-restarts
#            bit-identically
set -euo pipefail
cd "$(dirname "$0")/.."

GATE="${1:-all}"
case "$GATE" in
    all|cluster|netchaos|bench|backends) ;;
    *) echo "usage: scripts/verify.sh [all|cluster|netchaos|bench|backends]" >&2; exit 2 ;;
esac

step() { printf '\n== %s ==\n' "$*"; }

SMOKE_DIR="$(mktemp -d)"
# A failed smoke must not leave its servers running.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
SIMULATE=(cargo run -q --release --offline -p cap-harness --bin simulate --)

# fail <message> [file]: reports the error, and the file (a log or a
# report) if given, then exits.
fail() {
    echo "ERROR: $1" >&2
    if [ -n "${2:-}" ]; then cat "$2" >&2; fi
    exit 1
}

# expect <file> <pattern> <message>: fails unless a line of <file>
# matches <pattern>.
expect() {
    grep -q -- "$2" "$1" || fail "$3" "$1"
}

# wait_for <file> <pattern> <message>: polls up to 10 s for a line of
# <file> matching <pattern>; fails with <message> if none appears.
wait_for() {
    for _ in $(seq 1 100); do
        grep -q -- "$2" "$1" && return 0
        sleep 0.1
    done
    fail "$3" "$1"
}

# wait_port <port-file> <pid> <log>: waits up to 10 s for a background
# process to publish its port, then prints its loopback address.
wait_port() {
    for _ in $(seq 1 100); do
        if [ -s "$1" ]; then
            echo "127.0.0.1:$(cat "$1")"
            return 0
        fi
        kill -0 "$2" 2>/dev/null || fail "$3: died before publishing its port" "$3"
        sleep 0.1
    done
    fail "$3: never published its port" "$3"
}

# serve <log> [serve args...]: starts `simulate serve` on an ephemeral
# loopback port and waits for it. Sets SERVE_PID and SERVE_ADDR.
serve() {
    local log="$1"; shift
    rm -f "$log.port"
    "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$log.port" \
        --workers 2 "$@" > "$log" 2>&1 &
    SERVE_PID=$!
    SERVE_ADDR=$(wait_port "$log.port" "$SERVE_PID" "$log")
}

# start_nodes <dir> <index>...: serves one node per index, each with its
# own snapshot dir, and appends them to NODE_PIDS and NODE_ADDRS.
start_nodes() {
    local dir="$1" i; shift
    for i in "$@"; do
        serve "$dir/serve$i.log" --snapshot-dir "$dir/node$i"
        NODE_PIDS+=("$SERVE_PID")
        NODE_ADDRS+=("$SERVE_ADDR")
    done
}

# route <log> [route args...]: starts `simulate route` in front of
# NODE_ADDRS and waits for it. Sets ROUTE_PID and ROUTE_ADDR.
route() {
    local log="$1"; shift
    rm -f "$log.port"
    "${SIMULATE[@]}" route --nodes "$(IFS=,; echo "${NODE_ADDRS[*]}")" \
        --port-file "$log.port" --ship-every-ms 200 --probe-every-ms 100 \
        "$@" > "$log" 2>&1 &
    ROUTE_PID=$!
    ROUTE_ADDR=$(wait_port "$log.port" "$ROUTE_PID" "$log")
}

# stop_route <log>: shuts the router down gracefully; its final ledger
# must balance.
stop_route() {
    "${SIMULATE[@]}" client --addr "$ROUTE_ADDR" --shutdown 500
    wait "$ROUTE_PID" || fail "router exited nonzero on shutdown" "$1"
    expect "$1" 'balanced: true' "final router ledger did not balance"
}

core_gates() {
    step "tier-1 build (release, offline)"
    cargo build --release --offline

    step "every test and repository invariant (offline)"
    cargo test -q --offline

    step "clippy (all targets, warnings are errors)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    # perfbench is not a workspace member, so this leaves it alone.
    step "rustfmt (every workspace crate is formatted)"
    cargo fmt --all -- --check

    # Deleting or narrowing a public item breaks only the doc links to it.
    step "rustdoc (intra-doc links, warnings are errors)"
    RUSTDOCFLAGS='-D warnings' cargo doc --offline --workspace --no-deps

    step "quickstart example"
    cargo run -q --release --offline --example quickstart

    step "faults: 1k-mutation corruption smoke"
    cargo run -q --release --offline -p cap-faults --example corruption_smoke

    # perfbench is a workspace of its own, so the steps above never
    # compile it; an API change in a crate it imports breaks only here.
    step "perfbench builds (its own workspace)"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

# The cluster gate: 3 nodes behind the router front door, one killed
# under traffic, the keeper promoting a respawned replacement from its
# shipped replica, the ledger still balanced and the fleet dashboard
# still merging.
cluster_gate() {
    step "cluster: scripted 3-node fleet, kill-and-promote under traffic"
    local dir="$SMOKE_DIR/cluster"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 6000
    NODE_PIDS=() NODE_ADDRS=()
    start_nodes "$dir" 1 2 3
    route "$dir/route.log" --respawn --respawn-dir "$dir/spawned"

    "${SIMULATE[@]}" client --addr "$ROUTE_ADDR" --trace "$dir/trace.txt" \
        --take 3000 --json > "$dir/replay1.json"
    expect "$dir/replay1.json" '"sent": 3000' "fleet replay did not send all 3000 loads"
    sleep 0.5  # let a replica ship land before the kill
    kill -9 "${NODE_PIDS[0]}"
    wait_for "$dir/route.log" 'replaced at' "keeper never replaced the killed node"
    expect "$dir/route.log" 'promoting node 0 from replica' \
        "keeper never promoted a replacement from the replica"
    "${SIMULATE[@]}" client --addr "$ROUTE_ADDR" --trace "$dir/trace.txt" \
        --take 3000 --connect-retries 8 --stats > "$dir/after.json"
    expect "$dir/after.json" '"balances": true' "router accounting does not balance after the kill"
    expect "$dir/after.json" '"epoch": 1' "promotion did not flip the routing epoch"
    "${SIMULATE[@]}" top --cluster "$(IFS=,; echo "${NODE_ADDRS[*]:1}")" --json \
        > "$dir/fleet.json" 2> "$dir/fleet.log"
    expect "$dir/fleet.log" 'nodes reporting' "fleet dashboard did not merge"

    stop_route "$dir/route.log"
    # Retire the survivors and the respawned replacement.
    local a
    for a in "${NODE_ADDRS[@]:1}"; do
        "${SIMULATE[@]}" client --addr "$a" --shutdown 300 || true
    done
    if [ -s "$dir/spawned/node-0/port" ]; then
        "${SIMULATE[@]}" client \
            --addr "127.0.0.1:$(cat "$dir/spawned/node-0/port")" --shutdown 300 || true
    fi
    wait "${NODE_PIDS[@]:1}" 2>/dev/null || true
    echo "cluster smoke: kill survived, replica promoted, ledger balanced"
}

# The partition-tolerance gate's process-level half: a live fleet grows
# and shrinks through `route --admin-file` while traffic flows, and the
# ledger still balances. (The partition soak itself runs in tier-1.)
netchaos_gate() {
    step "netchaos: scripted runtime ring resize under live traffic"
    local dir="$SMOKE_DIR/netchaos"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 6000
    NODE_PIDS=() NODE_ADDRS=()
    start_nodes "$dir" 1 2 3
    : > "$dir/admin"
    route "$dir/route.log" --admin-file "$dir/admin"

    "${SIMULATE[@]}" client --addr "$ROUTE_ADDR" --trace "$dir/trace.txt" \
        --take 2000 --json > "$dir/replay1.json"
    expect "$dir/replay1.json" '"sent": 2000' "pre-resize replay did not send all 2000 loads"

    # Grow: bring up a fourth node, then hand it to the live router via
    # the admin file.
    start_nodes "$dir" 4
    echo "add ${NODE_ADDRS[3]}" >> "$dir/admin"
    wait_for "$dir/route.log" 'admin: node 3 added' "admin add never applied"

    # Shrink: retire node 1 from the ring while traffic continues.
    echo "remove 1" >> "$dir/admin"
    wait_for "$dir/route.log" 'admin: node 1 removed' "admin remove never applied"

    "${SIMULATE[@]}" client --addr "$ROUTE_ADDR" --trace "$dir/trace.txt" \
        --take 2000 --connect-retries 8 --stats > "$dir/after.json"
    expect "$dir/after.json" '"balances": true' "router accounting does not balance after the resize"
    expect "$dir/after.json" '"epoch": 2' "add+remove did not flip the epoch twice"
    expect "$dir/after.json" '"live_nodes": 3' "fleet should hold 3 live members after add+remove"

    stop_route "$dir/route.log"
    # Retire every node still running (including the removed-but-alive
    # node 1 and the late-added node 4).
    local a
    for a in "${NODE_ADDRS[@]}"; do
        "${SIMULATE[@]}" client --addr "$a" --shutdown 300 || true
    done
    wait "${NODE_PIDS[@]}" 2>/dev/null || true
    echo "netchaos smoke: fleet grew and shrank live, ledger balanced"
}

# The perf-baseline gate. The telemetry bench asserts that a disabled
# record site costs under 2% of a drive-loop event. The baseline bench
# writes BENCH_<git-short-sha>.json at the repo root (tracked, so every
# PR extends the perf trajectory); when a prior baseline exists the gate
# diffs single-predict latency against it and fails on a >10%
# regression.
bench_gate() {
    step "bench: zero-overhead-when-disabled telemetry check"
    CAP_BENCH_QUICK=1 cargo bench -q --offline -p cap-bench --bench obs_overhead

    step "bench: emit tracked baseline JSON"
    local sha out prev="" f
    sha=$(git rev-parse --short HEAD)
    out="BENCH_${sha}.json"
    # The newest baseline by the commit that added it: a fresh checkout
    # gives every file the same mtime, so `ls -t` cannot tell.
    for f in $(git log --diff-filter=A --format= --name-only -- 'BENCH_*.json'); do
        if [ "$f" != "$out" ] && [ -f "$f" ]; then
            prev="$f"
            break
        fi
    done
    echo "baseline to diff against: ${prev:-none}"

    # Runs the baseline bench, writing $out at the repo root (cargo runs
    # the bench binary from the crate dir, hence the absolute path) and
    # sanity-checking the JSON it emits.
    emit_baseline() {
        CAP_BENCH_BASELINE_OUT="$PWD/$out" \
            cargo bench -q --offline -p cap-bench --bench baseline
        expect "$out" '"schema": "cap-bench-baseline-v1"' "$out is not a v1 baseline"
        local key
        for key in single_predict_legacy_ns journal_append_ns_per_record \
            journal_replay_ns_per_record cluster_direct_p50_ns \
            cluster_direct_p99_ns cluster_router_p50_ns \
            cluster_router_p99_ns p50_ns p99_ns \
            backend_hybrid_ns backend_cap_ns backend_stride_ns; do
            expect "$out" "\"$key\"" "$out is missing \"$key\""
        done
        echo "baseline written: $out"
    }

    # Returns nonzero if single-predict latency regressed >10% vs
    # $prev; prints the comparison either way.
    diff_baseline() {
        local field old new ok=0
        for field in single_predict_legacy_ns; do
            old=$(sed -n "s/.*\"$field\": \([0-9.]*\).*/\1/p" "$prev")
            new=$(sed -n "s/.*\"$field\": \([0-9.]*\).*/\1/p" "$out")
            if [ -z "$old" ]; then
                echo "  $field: absent from $prev, recorded as $new ns"
                continue
            fi
            printf '  %-26s %s ns -> %s ns\n' "$field" "$old" "$new"
            awk -v n="$new" -v o="$old" 'BEGIN { exit !(n <= o * 1.10) }' || {
                echo "  $field regressed >10% vs $prev"
                ok=1
            }
        done
        return "$ok"
    }

    emit_baseline
    if [ -z "$prev" ]; then
        echo "no prior BENCH_*.json — nothing to diff against"
        return 0
    fi
    if grep -q '"quick": true' "$prev"; then
        echo "prior baseline $prev was a quick-mode smoke — skipping the diff"
        return 0
    fi
    step "bench: diff against $prev (>10% single-predict regression fails)"
    if diff_baseline; then
        echo "perf diff vs $prev: within budget"
        return 0
    fi
    # Per-process page placement can swing a short latency loop well
    # past 10% on a shared box; a real regression reproduces in a fresh
    # process, noise usually doesn't. One retry, then believe the tape.
    step "bench: regression seen — re-running once to rule out machine noise"
    emit_baseline
    if diff_baseline; then
        echo "perf diff vs $prev: within budget on retry (first run was noise)"
        return 0
    fi
    fail "single-predict latency regressed >10% vs $prev in two fresh runs"
}

# The backend-catalog gate: every backend the registry lists is a full
# citizen — it serves, drains, snapshots, and warm-restarts
# bit-identically. (That the registry is the only `match` on
# BackendKind is a tier-1 test.)
backends_gate() {
    step "backends: unknown --backend fails fast and lists the catalog"
    local dir="$SMOKE_DIR/backends"
    mkdir -p "$dir"
    if "${SIMULATE[@]}" serve --backend bogus > "$dir/bogus.log" 2>&1; then
        fail "serve accepted an unknown backend"
    fi
    expect "$dir/bogus.log" "unknown backend 'bogus'" "parse failure did not name the bad input"
    expect "$dir/bogus.log" 'valid backends: hybrid, cap, stride' \
        "parse failure did not list the registered catalog"

    step "backends: per-backend serve → replay → drain → warm restart"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 3000
    local b key ref res count=0
    for b in $("${SIMULATE[@]}" backends); do
        rm -rf "$dir/snapshots"
        serve "$dir/$b-1.log" --snapshot-dir "$dir/snapshots" --backend "$b"
        "${SIMULATE[@]}" client --addr "$SERVE_ADDR" --trace "$dir/trace.txt" \
            --take 1500 --json > "$dir/$b-replay.json"
        expect "$dir/$b-replay.json" '"sent": 1500' "[$b] replay did not send all 1500 loads"
        expect "$dir/$b-replay.json" '"errors": 0' "[$b] unpressured replay saw structured errors"
        "${SIMULATE[@]}" client --addr "$SERVE_ADDR" --stats > "$dir/$b-before.json"

        # Graceful shutdown: the drain answers everything in flight and
        # publishes a snapshot.
        "${SIMULATE[@]}" client --addr "$SERVE_ADDR" --shutdown 500
        wait "$SERVE_PID" || fail "[$b] server exited nonzero on graceful shutdown" "$dir/$b-1.log"
        expect "$dir/$b-1.log" 'drained (.* 0 rejected during drain)' \
            "[$b] graceful drain rejected requests"
        ls "$dir/snapshots"/ckpt-*.capsnap >/dev/null || fail "[$b] shutdown published no snapshot"

        # Warm restart: a fresh process resumed from the snapshot must
        # carry the learned predictor state bit-identically.
        serve "$dir/$b-2.log" --snapshot-dir "$dir/snapshots" --backend "$b" --resume
        expect "$dir/$b-2.log" 'warm restart from ' "[$b] restarted server did not warm-restart"
        "${SIMULATE[@]}" client --addr "$SERVE_ADDR" --stats > "$dir/$b-after.json"
        for key in loads predictions correct_predictions prediction_rate_bits accuracy_bits; do
            ref=$(grep "\"$key\"" "$dir/$b-before.json" || true)
            res=$(grep "\"$key\"" "$dir/$b-after.json" || true)
            if [ -z "$ref" ] || [ "$ref" != "$res" ]; then
                fail "[$b] warm restart diverged on $key: '$ref' vs '$res'"
            fi
        done
        "${SIMULATE[@]}" client --addr "$SERVE_ADDR" --shutdown 500
        wait "$SERVE_PID" || fail "[$b] restarted server exited nonzero on shutdown" "$dir/$b-2.log"
        count=$((count + 1))
        echo "backend smoke [$b]: served, drained, warm restart bit-identical"
    done
    if [ "$count" -lt 3 ]; then
        fail "expected at least 3 registered backends, smoked $count"
    fi
    echo "backend smoke: $count backends selectable end-to-end"
}

if [ "$GATE" = "all" ]; then
    core_gates
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "cluster" ]; then
    cluster_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "netchaos" ]; then
    netchaos_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "bench" ]; then
    bench_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "backends" ]; then
    backends_gate
fi

echo
echo "verify: all green"
