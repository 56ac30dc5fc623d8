#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and run its
# quickstart with zero registry access. Any failure exits nonzero.
#
# Usage: scripts/verify.sh [all|service|obs|cluster|netchaos|storage|bench|backends]
#   all      (default) every gate below
#   service  just the prediction-service gate: chaos soak, graceful
#            drain, and the warm-restart differential, all offline
#   obs      just the observability gate: golden stats exports, the
#            zero-overhead-when-disabled bench check, and the
#            no-parallel-metric-types grep
#   cluster  just the fleet gate: router crate tests, the multi-process
#            chaos soak (seeded kills + rolling restart vs control),
#            and a scripted 3-node kill-and-promote smoke
#   netchaos just the partition-tolerance gate: chaos-proxy crate
#            tests, the two-phase partition soak (exact accounting
#            under injected network faults, then post-heal bit-identity
#            vs an unpartitioned control; CAP_SOAK_QUICK keeps it under
#            a minute), and a scripted runtime ring-resize smoke driven
#            through `route --admin-file`
#   storage  just the storage-fault gate: ChaosVfs crate tests, the
#            journal codec tests, the crash-point matrix (crash after
#            every VFS op of a checkpoint+journal cycle, including
#            under lying fsyncs, resume bit-identical), a scripted
#            kill -9 → journal-replay → bit-identity smoke, and the
#            no-direct-std::fs grep over the checkpoint/journal paths
#   bench    just the perf-baseline gate: the hybrid golden matrix,
#            then the baseline bench emitting
#            BENCH_<git-short-sha>.json and diffing it against the
#            newest prior baseline (>10% single-predict regression
#            fails)
#   backends just the backend-catalog gate: registry round-trip and
#            per-backend snapshot tests, a grep asserting the registry
#            in backend.rs is the only `match` on BackendKind, and a
#            per-backend serve → predict → snapshot → warm-restart
#            smoke over every name `simulate backends` lists
set -euo pipefail
cd "$(dirname "$0")/.."

GATE="${1:-all}"
case "$GATE" in
    all|service|obs|cluster|netchaos|storage|bench|backends) ;;
    *) echo "usage: scripts/verify.sh [all|service|obs|cluster|netchaos|storage|bench|backends]" >&2; exit 2 ;;
esac

step() { printf '\n== %s ==\n' "$*"; }

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SIMULATE=(cargo run -q --release --offline -p cap-harness --bin simulate --)

core_gates() {
    step "tier-1 build (release, offline)"
    cargo build --release --offline

    step "compile every target (tests, benches, examples) offline"
    cargo check --offline --workspace --all-targets

    step "full test suite (offline)"
    cargo test -q --offline --workspace

    step "quickstart example"
    cargo run -q --release --offline --example quickstart

    step "faults: chaos suite + 1k-mutation corruption smoke"
    cargo test -q --offline -p cap-faults
    cargo run -q --release --offline -p cap-faults --example corruption_smoke

    step "clippy (all targets, warnings are errors)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    step "snapshot: crate tests + scripted kill-and-resume smoke"
    cargo test -q --offline -p cap-snapshot
    "${SIMULATE[@]}" gen --out "$SMOKE_DIR/trace.txt" --loads 8000
    "${SIMULATE[@]}" run --trace "$SMOKE_DIR/trace.txt" --json \
        > "$SMOKE_DIR/reference.json"
    KILLED_STATUS=0
    "${SIMULATE[@]}" run --trace "$SMOKE_DIR/trace.txt" \
        --checkpoint-dir "$SMOKE_DIR/ckpts" --checkpoint-every 1000 \
        --kill-after 6000 || KILLED_STATUS=$?
    if [ "$KILLED_STATUS" -ne 137 ]; then
        echo "ERROR: --kill-after must exit 137, got $KILLED_STATUS" >&2
        exit 1
    fi
    "${SIMULATE[@]}" run --trace "$SMOKE_DIR/trace.txt" \
        --checkpoint-dir "$SMOKE_DIR/ckpts" --checkpoint-every 1000 \
        --resume auto --json > "$SMOKE_DIR/resumed.json"
    grep -q '"resumed_from": "' "$SMOKE_DIR/resumed.json" || {
        echo "ERROR: resumed run did not recover a checkpoint" >&2
        exit 1
    }
    for key in loads predictions correct_predictions prediction_rate_bits; do
        ref=$(grep "\"$key\"" "$SMOKE_DIR/reference.json")
        res=$(grep "\"$key\"" "$SMOKE_DIR/resumed.json")
        if [ "$ref" != "$res" ]; then
            echo "ERROR: kill-and-resume diverged on $key: '$ref' vs '$res'" >&2
            exit 1
        fi
    done
    echo "kill-and-resume smoke: bit-identical metrics after resume"

    step "hermeticity: no external crates in any manifest"
    if grep -rn 'rand\|proptest\|criterion' Cargo.toml crates/*/Cargo.toml | grep -v 'cap-rand'; then
        echo "ERROR: external dependency reference found in a manifest" >&2
        exit 1
    fi
}

# The service gate: chaos soak (seeded, bounded), graceful-shutdown
# drain, and the warm-restart differential — in-process via the crate's
# integration tests, then end-to-end through the real `simulate`
# binary over loopback TCP. Fully offline.
service_gate() {
    step "service: seeded bounded chaos soak + warm-restart differential"
    cargo test -q --offline --release -p cap-service --test chaos_soak
    cargo test -q --offline --release -p cap-service --test warm_restart
    cargo test -q --offline --release -p cap-service --test tcp

    step "service: scripted serve / drain / kill-and-warm-restart cycle"
    local dir="$SMOKE_DIR/service"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 6000

    serve_wait_port() {
        # Starts a server in the background (PID in SERVE_PID, log in $1)
        # and blocks until the port file appears.
        local log="$1"; shift
        rm -f "$dir/port"
        "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$dir/port" \
            --workers 2 --snapshot-dir "$dir/snapshots" "$@" \
            > "$log" 2>&1 &
        SERVE_PID=$!
        for _ in $(seq 1 100); do
            [ -s "$dir/port" ] && return 0
            if ! kill -0 "$SERVE_PID" 2>/dev/null; then
                echo "ERROR: server died before publishing its port" >&2
                cat "$log" >&2
                exit 1
            fi
            sleep 0.1
        done
        echo "ERROR: server never published its port" >&2
        exit 1
    }

    serve_wait_port "$dir/serve1.log"
    ADDR="127.0.0.1:$(cat "$dir/port")"
    "${SIMULATE[@]}" client --addr "$ADDR" --trace "$dir/trace.txt" \
        --take 3000 --json > "$dir/replay.json"
    grep -q '"sent": 3000' "$dir/replay.json" || {
        echo "ERROR: replay did not send all 3000 loads" >&2
        exit 1
    }
    grep -q '"errors": 0' "$dir/replay.json" || {
        echo "ERROR: unpressured replay saw structured errors" >&2
        exit 1
    }
    "${SIMULATE[@]}" client --addr "$ADDR" --stats > "$dir/stats-before.json"

    # Graceful shutdown: the drain must answer everything in flight —
    # the server reports how many requests it rejected while draining.
    "${SIMULATE[@]}" client --addr "$ADDR" --shutdown 500
    wait "$SERVE_PID" || {
        echo "ERROR: server exited nonzero on graceful shutdown" >&2
        cat "$dir/serve1.log" >&2
        exit 1
    }
    grep -q 'drained (.* 0 rejected during drain)' "$dir/serve1.log" || {
        echo "ERROR: graceful drain rejected requests" >&2
        cat "$dir/serve1.log" >&2
        exit 1
    }
    ls "$dir/snapshots"/ckpt-*.capsnap >/dev/null || {
        echo "ERROR: shutdown published no snapshot" >&2
        exit 1
    }

    # Warm restart: a fresh process resumed from the snapshot must carry
    # the learned predictor state bit-identically — the aggregate
    # predictor metrics before shutdown and after restart must match.
    serve_wait_port "$dir/serve2.log" --resume
    ADDR="127.0.0.1:$(cat "$dir/port")"
    grep -q 'warm restart from ' "$dir/serve2.log" || {
        echo "ERROR: restarted server did not warm-restart" >&2
        cat "$dir/serve2.log" >&2
        exit 1
    }
    "${SIMULATE[@]}" client --addr "$ADDR" --stats > "$dir/stats-after.json"
    for key in loads predictions correct_predictions prediction_rate_bits accuracy_bits; do
        ref=$(grep "\"$key\"" "$dir/stats-before.json")
        res=$(grep "\"$key\"" "$dir/stats-after.json")
        if [ -z "$ref" ] || [ "$ref" != "$res" ]; then
            echo "ERROR: warm restart diverged on $key: '$ref' vs '$res'" >&2
            exit 1
        fi
    done
    "${SIMULATE[@]}" client --addr "$ADDR" --shutdown 500
    wait "$SERVE_PID" || {
        echo "ERROR: restarted server exited nonzero on shutdown" >&2
        exit 1
    }
    echo "service smoke: drained cleanly, warm restart bit-identical"
}

# The observability gate: the telemetry layer's three contracts.
#   1. Export stability — the CAPO wire frame and the JSON rendering
#      are byte-identical to their checked-in goldens.
#   2. Zero overhead when disabled — the bench asserts a disabled
#      record site costs under 2% of a drive-loop event.
#   3. One metrics vocabulary — no crate except cap-obs defines its
#      own histogram/metric-registry types (SaturatingCounter and
#      friends in cap-predictor are *architectural state*, not
#      telemetry, and are allowed by name).
obs_gate() {
    step "obs: registry + export unit tests"
    cargo test -q --offline -p cap-obs

    step "obs: golden stats exports (wire frame + JSON, byte-stable)"
    cargo test -q --offline --release -p cap-harness --test obs_golden

    step "obs: registry reconciles with legacy stats under chaos"
    cargo test -q --offline --release -p cap-service --test chaos_soak
    cargo test -q --offline --release -p cap-service --lib \
        registry_reconciles_with_legacy_stats_views

    step "obs: zero-overhead-when-disabled bench check"
    CAP_BENCH_QUICK=1 CAP_OBS_CHECK=1 \
        cargo bench -q --offline -p cap-bench --bench obs_overhead

    step "obs: no parallel metric types outside cap-obs"
    if grep -rn 'struct [A-Za-z]*\(Histogram\|MetricRegistry\)' crates/*/src \
        | grep -v '^crates/cap-obs/'; then
        echo "ERROR: a crate other than cap-obs defines its own histogram/registry type" >&2
        exit 1
    fi
    echo "metric-type grep: clean"
}

# The cluster gate: the sharded fleet's robustness contracts.
#   1. Router crate tests — ring placement, request accounting,
#      failover from shipped replicas, zero-drift live migration, and
#      a hostile peer on the snapshot-ship path.
#   2. The multi-process chaos soak — real serve processes, seeded
#      SIGKILLs mid-traffic with exact request accounting, and a full
#      rolling restart proved bit-identical to an unrestarted control
#      fleet.
#   3. A scripted end-to-end smoke — 3 nodes behind the router front
#      door, one killed under traffic, the keeper promoting a respawned
#      replacement from its shipped replica, the ledger still balanced
#      and the fleet dashboard still merging.
cluster_gate() {
    step "cluster: router crate tests (ring, accounting, failover, migration)"
    cargo test -q --offline --release -p cap-cluster

    step "cluster: multi-process chaos soak + rolling-restart differential"
    cargo test -q --offline --release -p cap-harness --test cluster_soak

    step "cluster: scripted 3-node fleet, kill-and-promote under traffic"
    local dir="$SMOKE_DIR/cluster"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 6000

    local pids=() addrs=() i
    for i in 1 2 3; do
        rm -f "$dir/port$i"
        "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$dir/port$i" \
            --workers 2 --snapshot-dir "$dir/node$i" > "$dir/serve$i.log" 2>&1 &
        pids+=($!)
    done
    for i in 1 2 3; do
        for _ in $(seq 1 100); do [ -s "$dir/port$i" ] && break; sleep 0.1; done
        [ -s "$dir/port$i" ] || {
            echo "ERROR: node $i never published its port" >&2
            cat "$dir/serve$i.log" >&2
            exit 1
        }
        addrs+=("127.0.0.1:$(cat "$dir/port$i")")
    done

    rm -f "$dir/rport"
    "${SIMULATE[@]}" route --nodes "$(IFS=,; echo "${addrs[*]}")" \
        --port-file "$dir/rport" --respawn --respawn-dir "$dir/spawned" \
        --ship-every-ms 200 --probe-every-ms 100 > "$dir/route.log" 2>&1 &
    local route_pid=$!
    for _ in $(seq 1 100); do [ -s "$dir/rport" ] && break; sleep 0.1; done
    [ -s "$dir/rport" ] || {
        echo "ERROR: router never published its port" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    local raddr="127.0.0.1:$(cat "$dir/rport")"

    "${SIMULATE[@]}" client --addr "$raddr" --trace "$dir/trace.txt" \
        --take 3000 --json > "$dir/replay1.json"
    grep -q '"sent": 3000' "$dir/replay1.json" || {
        echo "ERROR: fleet replay did not send all 3000 loads" >&2
        exit 1
    }
    sleep 0.5  # let a replica ship land before the kill
    kill -9 "${pids[0]}"
    for _ in $(seq 1 100); do
        grep -q 'replaced at' "$dir/route.log" && break
        sleep 0.1
    done
    grep -q 'promoting node 0 from replica' "$dir/route.log" || {
        echo "ERROR: keeper never promoted a replacement from the replica" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    "${SIMULATE[@]}" client --addr "$raddr" --trace "$dir/trace.txt" \
        --take 3000 --connect-retries 8 --stats > "$dir/after.json"
    grep -q '"balances": true' "$dir/after.json" || {
        echo "ERROR: router accounting does not balance after the kill" >&2
        cat "$dir/after.json" >&2
        exit 1
    }
    grep -q '"epoch": 1' "$dir/after.json" || {
        echo "ERROR: promotion did not flip the routing epoch" >&2
        cat "$dir/after.json" >&2
        exit 1
    }
    "${SIMULATE[@]}" top --cluster "$(IFS=,; echo "${addrs[*]:1}")" --json \
        > "$dir/fleet.json" 2> "$dir/fleet.log"
    grep -q 'nodes reporting' "$dir/fleet.log" || {
        echo "ERROR: fleet dashboard did not merge" >&2
        cat "$dir/fleet.log" >&2
        exit 1
    }

    "${SIMULATE[@]}" client --addr "$raddr" --shutdown 500
    wait "$route_pid" || {
        echo "ERROR: router exited nonzero on shutdown" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    grep -q 'balanced: true' "$dir/route.log" || {
        echo "ERROR: final router ledger did not balance" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    # Retire the survivors and the respawned replacement.
    for a in "${addrs[@]:1}"; do
        "${SIMULATE[@]}" client --addr "$a" --shutdown 300 || true
    done
    if [ -s "$dir/spawned/node-0/port" ]; then
        "${SIMULATE[@]}" client \
            --addr "127.0.0.1:$(cat "$dir/spawned/node-0/port")" --shutdown 300 || true
    fi
    wait "${pids[1]}" "${pids[2]}" 2>/dev/null || true
    echo "cluster smoke: kill survived, replica promoted, ledger balanced"
}

# The partition-tolerance gate: the network fault model's contracts.
#   1. Chaos-proxy crate tests — seeded fault plans are deterministic,
#      replayable, and order-independent.
#   2. Partition + fencing router tests — black-hole partitions read as
#      timeouts and trip the breaker, latency above the deadline is the
#      partition signature, mid-stream resets during a snapshot pull
#      never corrupt the held replica, and runtime resizes fence stale
#      epochs.
#   3. The two-phase partition soak — thousands of requests through
#      fault-injecting proxies with exact accounting (every request
#      answered, shed, or attributed to failover; none lost or
#      double-trained), then a partitioned fleet healing to
#      bit-identical state vs an unpartitioned control. CAP_SOAK_QUICK
#      keeps the gate under a minute; unset it for the full-size soak.
#   4. A scripted runtime-resize smoke — a live fleet grows and shrinks
#      through `route --admin-file` while traffic flows, and the ledger
#      still balances.
netchaos_gate() {
    step "netchaos: chaos-proxy fault-plan tests (deterministic, seeded)"
    cargo test -q --offline --release -p cap-faults net::

    step "netchaos: partition + fencing router tests"
    cargo test -q --offline --release -p cap-cluster --test router

    step "netchaos: two-phase partition soak (quick mode)"
    CAP_SOAK_QUICK=1 cargo test -q --offline --release -p cap-harness \
        --test partition_soak

    step "netchaos: scripted runtime ring resize under live traffic"
    local dir="$SMOKE_DIR/netchaos"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 6000

    local pids=() addrs=() i
    for i in 1 2 3; do
        rm -f "$dir/port$i"
        "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$dir/port$i" \
            --workers 2 --snapshot-dir "$dir/node$i" > "$dir/serve$i.log" 2>&1 &
        pids+=($!)
    done
    for i in 1 2 3; do
        for _ in $(seq 1 100); do [ -s "$dir/port$i" ] && break; sleep 0.1; done
        [ -s "$dir/port$i" ] || {
            echo "ERROR: node $i never published its port" >&2
            cat "$dir/serve$i.log" >&2
            exit 1
        }
        addrs+=("127.0.0.1:$(cat "$dir/port$i")")
    done

    rm -f "$dir/rport"
    : > "$dir/admin"
    "${SIMULATE[@]}" route --nodes "$(IFS=,; echo "${addrs[*]}")" \
        --port-file "$dir/rport" --admin-file "$dir/admin" \
        --ship-every-ms 200 --probe-every-ms 100 > "$dir/route.log" 2>&1 &
    local route_pid=$!
    for _ in $(seq 1 100); do [ -s "$dir/rport" ] && break; sleep 0.1; done
    [ -s "$dir/rport" ] || {
        echo "ERROR: router never published its port" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    local raddr="127.0.0.1:$(cat "$dir/rport")"

    "${SIMULATE[@]}" client --addr "$raddr" --trace "$dir/trace.txt" \
        --take 2000 --json > "$dir/replay1.json"
    grep -q '"sent": 2000' "$dir/replay1.json" || {
        echo "ERROR: pre-resize replay did not send all 2000 loads" >&2
        exit 1
    }

    # Grow: bring up a fourth node, then hand it to the live router via
    # the admin file.
    rm -f "$dir/port4"
    "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$dir/port4" \
        --workers 2 --snapshot-dir "$dir/node4" > "$dir/serve4.log" 2>&1 &
    pids+=($!)
    for _ in $(seq 1 100); do [ -s "$dir/port4" ] && break; sleep 0.1; done
    [ -s "$dir/port4" ] || {
        echo "ERROR: node 4 never published its port" >&2
        cat "$dir/serve4.log" >&2
        exit 1
    }
    addrs+=("127.0.0.1:$(cat "$dir/port4")")
    echo "add ${addrs[3]}" >> "$dir/admin"
    for _ in $(seq 1 100); do
        grep -q 'admin: node 3 added' "$dir/route.log" && break
        sleep 0.1
    done
    grep -q 'admin: node 3 added' "$dir/route.log" || {
        echo "ERROR: admin add never applied" >&2
        cat "$dir/route.log" >&2
        exit 1
    }

    # Shrink: retire node 1 from the ring while traffic continues.
    echo "remove 1" >> "$dir/admin"
    for _ in $(seq 1 100); do
        grep -q 'admin: node 1 removed' "$dir/route.log" && break
        sleep 0.1
    done
    grep -q 'admin: node 1 removed' "$dir/route.log" || {
        echo "ERROR: admin remove never applied" >&2
        cat "$dir/route.log" >&2
        exit 1
    }

    "${SIMULATE[@]}" client --addr "$raddr" --trace "$dir/trace.txt" \
        --take 2000 --connect-retries 8 --stats > "$dir/after.json"
    grep -q '"balances": true' "$dir/after.json" || {
        echo "ERROR: router accounting does not balance after the resize" >&2
        cat "$dir/after.json" >&2
        exit 1
    }
    grep -q '"epoch": 2' "$dir/after.json" || {
        echo "ERROR: add+remove did not flip the epoch twice" >&2
        cat "$dir/after.json" >&2
        exit 1
    }
    grep -q '"live_nodes": 3' "$dir/after.json" || {
        echo "ERROR: fleet should hold 3 live members after add+remove" >&2
        cat "$dir/after.json" >&2
        exit 1
    }

    "${SIMULATE[@]}" client --addr "$raddr" --shutdown 500
    wait "$route_pid" || {
        echo "ERROR: router exited nonzero on shutdown" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    grep -q 'balanced: true' "$dir/route.log" || {
        echo "ERROR: final router ledger did not balance" >&2
        cat "$dir/route.log" >&2
        exit 1
    }
    # Retire every node still running (including the removed-but-alive
    # node 1 and the late-added node 4).
    for a in "${addrs[@]}"; do
        "${SIMULATE[@]}" client --addr "$a" --shutdown 300 || true
    done
    wait "${pids[@]}" 2>/dev/null || true
    echo "netchaos smoke: fleet grew and shrank live, ledger balanced"
}

# The storage-fault gate: the durability layer's contracts.
#   1. ChaosVfs crate tests — the injectable filesystem's fault kinds,
#      volatile/durable split, and crash semantics are themselves
#      tested.
#   2. Journal codec tests — CRC framing, torn tails at every cut
#      point, bit flips in any record byte.
#   3. The crash-point matrix — one checkpoint+journal+rotation cycle
#      is op-counted, then crashed after *every* operation index and
#      resumed, bit-identical to an uninterrupted control, including
#      when 50% or 100% of fsyncs lie.
#   4. A scripted kill -9 smoke through the real binary: the resumed
#      run must report journal replay and match the uninterrupted
#      reference metrics exactly.
#   5. A grep proving the checkpoint and journal code paths never
#      touch std::fs directly — every disk operation goes through the
#      Vfs seam, or the matrix proves nothing.
storage_gate() {
    step "storage: ChaosVfs fault-injection + crash-semantics tests"
    cargo test -q --offline --release -p cap-faults fs::

    step "storage: journal codec tests (CRC framing, torn tails)"
    cargo test -q --offline -p cap-snapshot journal

    step "storage: crash-point matrix + checkpoint-debris tests"
    cargo test -q --offline --release -p cap-harness --test storage_chaos
    cargo test -q --offline --release -p cap-harness --test checkpoint

    step "storage: scripted kill -9 → journal replay → bit-identity smoke"
    local dir="$SMOKE_DIR/storage"
    mkdir -p "$dir"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 8000
    "${SIMULATE[@]}" run --trace "$dir/trace.txt" --json \
        > "$dir/reference.json"
    local killed=0
    "${SIMULATE[@]}" run --trace "$dir/trace.txt" \
        --checkpoint-dir "$dir/ckpts" --checkpoint-every 2000 \
        --journal-every 128 --kill-after 7000 || killed=$?
    if [ "$killed" -ne 137 ]; then
        echo "ERROR: --kill-after must exit 137, got $killed" >&2
        exit 1
    fi
    ls "$dir/ckpts"/journal-*.capj >/dev/null || {
        echo "ERROR: journaled run left no journal on disk" >&2
        exit 1
    }
    "${SIMULATE[@]}" run --trace "$dir/trace.txt" \
        --checkpoint-dir "$dir/ckpts" --checkpoint-every 2000 \
        --journal-every 128 --resume auto --json > "$dir/resumed.json"
    grep -q '"journal_replayed": 0' "$dir/resumed.json" && {
        echo "ERROR: resume did not replay the delta journal" >&2
        cat "$dir/resumed.json" >&2
        exit 1
    }
    local key ref res
    for key in loads predictions correct_predictions prediction_rate_bits; do
        ref=$(grep "\"$key\"" "$dir/reference.json")
        res=$(grep "\"$key\"" "$dir/resumed.json")
        if [ "$ref" != "$res" ]; then
            echo "ERROR: journal replay diverged on $key: '$ref' vs '$res'" >&2
            exit 1
        fi
    done
    echo "journal smoke: replayed the delta journal, bit-identical metrics"

    step "storage: checkpoint/journal code paths never touch std::fs directly"
    if grep -n 'std::fs\|File::' \
        crates/cap-harness/src/checkpoint.rs \
        crates/cap-snapshot/src/journal.rs \
        | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
        echo "ERROR: a checkpoint/journal code path bypasses the Vfs seam" >&2
        exit 1
    fi
    echo "vfs-seam grep: clean"
}

# The perf-baseline gate: prove the hybrid still predicts exactly as
# its golden matrix pins, then price it. The baseline bench writes
# BENCH_<git-short-sha>.json at the repo root (tracked, so every PR
# extends the perf trajectory); when a prior baseline exists the gate
# diffs single-predict latency against it and fails on a >10%
# regression.
bench_gate() {
    step "bench: hybrid golden matrix (release)"
    cargo test -q --offline --release -p cap-predictor --test hybrid_golden

    step "bench: emit tracked baseline JSON"
    local sha out prev
    sha=$(git rev-parse --short HEAD)
    out="BENCH_${sha}.json"
    prev=$(ls -t BENCH_*.json 2>/dev/null | grep -v "^${out}\$" | head -n 1 || true)

    # Runs the baseline bench, writing $out at the repo root (cargo runs
    # the bench binary from the crate dir, hence the absolute path) and
    # sanity-checking the JSON it emits.
    emit_baseline() {
        CAP_BENCH_BASELINE_OUT="$PWD/$out" \
            cargo bench -q --offline -p cap-bench --bench baseline
        grep -q '"schema": "cap-bench-baseline-v1"' "$out" || {
            echo "ERROR: $out is not a v1 baseline" >&2
            exit 1
        }
        local key
        for key in single_predict_legacy_ns journal_append_ns_per_record \
            journal_replay_ns_per_record cluster_direct_p50_ns \
            cluster_direct_p99_ns cluster_router_p50_ns \
            cluster_router_p99_ns p50_ns p99_ns \
            backend_cache_level_ns backend_ldbp_ns backend_pcax_ns; do
            grep -q "\"$key\"" "$out" || {
                echo "ERROR: $out is missing \"$key\"" >&2
                exit 1
            }
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
    echo "ERROR: single-predict latency regressed >10% vs $prev in two fresh runs" >&2
    exit 1
}

# The backend-catalog gate: the registry in backend.rs is the single
# dispatch point, and every backend it lists is a full citizen — it
# serves, predicts, snapshots, and warm-restarts bit-identically.
backends_gate() {
    step "backends: registry round-trips + per-backend snapshot tests"
    cargo test -q --offline --release -p cap-service backend
    cargo test -q --offline --release -p cap-faults target

    step "backends: the registry is the only match on BackendKind"
    if grep -rn 'match .*BackendKind' crates src examples 2>/dev/null \
        | grep -v '^crates/cap-service/src/backend.rs:'; then
        echo "ERROR: BackendKind matched outside crates/cap-service/src/backend.rs —" >&2
        echo "       adding a backend must stay a one-row registry edit" >&2
        exit 1
    fi
    echo "no BackendKind dispatch outside the registry"

    step "backends: unknown --backend fails fast and lists the catalog"
    local dir="$SMOKE_DIR/backends"
    mkdir -p "$dir"
    if "${SIMULATE[@]}" serve --backend bogus > "$dir/bogus.log" 2>&1; then
        echo "ERROR: serve accepted an unknown backend" >&2
        exit 1
    fi
    grep -q "unknown backend 'bogus'" "$dir/bogus.log" || {
        echo "ERROR: parse failure did not name the bad input" >&2
        cat "$dir/bogus.log" >&2
        exit 1
    }
    grep -q 'valid backends:.*cache-level.*ldbp.*pcax' "$dir/bogus.log" || {
        echo "ERROR: parse failure did not list the registered catalog" >&2
        cat "$dir/bogus.log" >&2
        exit 1
    }

    step "backends: per-backend serve → predict → snapshot → warm restart"
    "${SIMULATE[@]}" gen --out "$dir/trace.txt" --loads 3000

    backend_serve_wait_port() {
        # Starts a server in the background (PID in SERVE_PID, log in
        # $1) and blocks until the port file appears.
        local log="$1"; shift
        rm -f "$dir/port"
        "${SIMULATE[@]}" serve --addr 127.0.0.1:0 --port-file "$dir/port" \
            --workers 2 --snapshot-dir "$dir/snapshots" "$@" \
            > "$log" 2>&1 &
        SERVE_PID=$!
        for _ in $(seq 1 100); do
            [ -s "$dir/port" ] && return 0
            if ! kill -0 "$SERVE_PID" 2>/dev/null; then
                echo "ERROR: server died before publishing its port" >&2
                cat "$log" >&2
                exit 1
            fi
            sleep 0.1
        done
        echo "ERROR: server never published its port" >&2
        exit 1
    }

    local b count=0
    for b in $("${SIMULATE[@]}" backends); do
        rm -rf "$dir/snapshots"
        backend_serve_wait_port "$dir/serve-$b-1.log" --backend "$b"
        ADDR="127.0.0.1:$(cat "$dir/port")"
        "${SIMULATE[@]}" client --addr "$ADDR" --trace "$dir/trace.txt" \
            --take 1500 --json > "$dir/replay-$b.json"
        grep -q '"errors": 0' "$dir/replay-$b.json" || {
            echo "ERROR: [$b] replay saw structured errors" >&2
            exit 1
        }
        "${SIMULATE[@]}" client --addr "$ADDR" --stats > "$dir/stats-$b-before.json"
        "${SIMULATE[@]}" client --addr "$ADDR" --shutdown 500
        wait "$SERVE_PID" || {
            echo "ERROR: [$b] server exited nonzero on graceful shutdown" >&2
            cat "$dir/serve-$b-1.log" >&2
            exit 1
        }
        ls "$dir/snapshots"/ckpt-*.capsnap >/dev/null || {
            echo "ERROR: [$b] shutdown published no snapshot" >&2
            exit 1
        }

        backend_serve_wait_port "$dir/serve-$b-2.log" --backend "$b" --resume
        ADDR="127.0.0.1:$(cat "$dir/port")"
        grep -q 'warm restart from ' "$dir/serve-$b-2.log" || {
            echo "ERROR: [$b] restarted server did not warm-restart" >&2
            cat "$dir/serve-$b-2.log" >&2
            exit 1
        }
        "${SIMULATE[@]}" client --addr "$ADDR" --stats > "$dir/stats-$b-after.json"
        for key in loads predictions correct_predictions prediction_rate_bits accuracy_bits; do
            ref=$(grep "\"$key\"" "$dir/stats-$b-before.json")
            res=$(grep "\"$key\"" "$dir/stats-$b-after.json")
            if [ -z "$ref" ] || [ "$ref" != "$res" ]; then
                echo "ERROR: [$b] warm restart diverged on $key: '$ref' vs '$res'" >&2
                exit 1
            fi
        done
        "${SIMULATE[@]}" client --addr "$ADDR" --shutdown 500
        wait "$SERVE_PID" || {
            echo "ERROR: [$b] restarted server exited nonzero on shutdown" >&2
            exit 1
        }
        count=$((count + 1))
        echo "backend smoke [$b]: served, drained, warm restart bit-identical"
    done
    if [ "$count" -lt 6 ]; then
        echo "ERROR: expected at least 6 registered backends, smoked $count" >&2
        exit 1
    fi
    echo "backend smoke: $count backends selectable end-to-end"
}

if [ "$GATE" = "all" ]; then
    core_gates
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "service" ]; then
    service_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "obs" ]; then
    obs_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "cluster" ]; then
    cluster_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "netchaos" ]; then
    netchaos_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "storage" ]; then
    storage_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "bench" ]; then
    bench_gate
fi
if [ "$GATE" = "all" ] || [ "$GATE" = "backends" ]; then
    backends_gate
fi

echo
echo "verify: all green"
