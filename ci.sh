#!/usr/bin/env sh
# Offline CI gate: formatting, lints, release build, full test suite,
# the kernel-benchmark regression check, and the serving soak stages
# (single-node and cluster). Everything runs with --offline — the
# workspace has zero external dependencies, so no network access is
# ever needed.
#
# The only place a stage body lives: every job in
# .github/workflows/ci.yml runs `./ci.sh --stage <its id>` (plus the
# build stage and its artifact uploads), in the same order as the stage
# lines below; the sync-check stage enforces both.
#
# Usage:
#   ./ci.sh                 run every stage, in order
#   ./ci.sh --list          print the stage names, in order, and exit
#   ./ci.sh --stage NAME    reproduce a single stage locally (e.g.
#                           `./ci.sh --stage cluster-soak`); stages that
#                           run ./target/release binaries assume a prior
#                           `./ci.sh --stage build`
#
# Every run ends by writing ci-timings.json (machine-readable per-stage
# wall-clock seconds) and printing the slowest stages first.
set -eu

cd "$(dirname "$0")"

# The stage names, in run order, parsed out of this very script — the
# single source both `--list` and the unknown-`--stage` error print.
list_stages() {
    grep '^stage ' "$0" | awk '{print $2}'
}

SELECT=""
SELECT_FOUND=0
if [ "${1:-}" = "--list" ]; then
    list_stages
    exit 0
elif [ "${1:-}" = "--stage" ]; then
    if [ -z "${2:-}" ]; then
        echo "--stage needs a stage name" >&2
        exit 2
    fi
    SELECT="$2"
elif [ -n "${1:-}" ]; then
    echo "unknown argument: $1 (only --list and --stage NAME are supported)" >&2
    exit 2
fi

STAGE="(startup)"
STAGES_RUN=""
TIMINGS=""

on_exit() {
    code=$?
    echo ""
    if [ "$code" -eq 0 ] && [ -n "$SELECT" ] && [ "$SELECT_FOUND" -eq 0 ]; then
        echo "no stage named '$SELECT'; stages are:" >&2
        list_stages | sed 's/^/  /' >&2
        exit 2
    fi
    if [ "$code" -eq 0 ]; then
        echo "CI gate passed:$STAGES_RUN"
    else
        echo "CI gate FAILED in stage: $STAGE"
    fi
}
trap on_exit EXIT

stage() {
    name="$1"
    shift
    if [ -n "$SELECT" ] && [ "$name" != "$SELECT" ]; then
        return 0
    fi
    SELECT_FOUND=1
    STAGE="$name"
    echo "== $STAGE =="
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    echo "-- $STAGE: $((end - start))s"
    STAGES_RUN="$STAGES_RUN $STAGE($((end - start))s)"
    TIMINGS="$TIMINGS $STAGE:$((end - start))"
}

# Kill-and-resume gate: interrupt a crash-safe Table IV sweep after two
# cells (exit 3 = partial, by contract), resume it to completion from
# the checkpoint directory, and demand the output be byte-identical to
# an uninterrupted run.
kill_and_resume() {
    dir=$(mktemp -d)
    set +e
    ./target/release/qnn table4 smoke --resume "$dir/ckpt" --max-cells 2 \
        > "$dir/partial.txt"
    code=$?
    set -e
    if [ "$code" -ne 3 ]; then
        echo "interrupted sweep should exit 3, got $code" >&2
        return 1
    fi
    ./target/release/qnn table4 smoke --resume "$dir/ckpt" > "$dir/resumed.txt"
    ./target/release/qnn table4 smoke > "$dir/plain.txt"
    cmp "$dir/resumed.txt" "$dir/plain.txt"
    rm -rf "$dir"
}

# Thread-determinism gate: the same smoke-scale Table IV sweep must be
# byte-identical at 1 and 4 worker threads — the invariant the parallel
# compute core promises.
thread_determinism() {
    dir=$(mktemp -d)
    QNN_THREADS=1 ./target/release/qnn table4 smoke > "$dir/t1.txt"
    QNN_THREADS=4 ./target/release/qnn table4 smoke > "$dir/t4.txt"
    cmp "$dir/t1.txt" "$dir/t4.txt"
    rm -rf "$dir"
}

# Tune-smoke gate: run a cell-bounded smoke-scale mixed-precision
# autotune to completion (32 cells bounds the 7-uniform + coordinate
# -descent sweep from above) and gate the committed PARETO_tune.json
# against the fresh front: a committed point no fresh point matches
# within tolerance is PARETO-DOMINATED, as are a frontier that fails to
# parse and an empty fresh front.
tune_smoke() {
    dir=$(mktemp -d)
    ./target/release/qnn tune smoke --resume "$dir/ckpt" --max-cells 32 \
        --out "$dir/PARETO_fresh.json"
    ./target/release/qnn-bench bench-check --pareto "$dir/PARETO_fresh.json" \
        --baseline PARETO_tune.json
    rm -rf "$dir"
}

# Tune kill-and-resume gate: SIGKILL an autotune mid-sweep at a
# seed-derived cell (the CLI self-kills after recording that cell, so
# the ledger has committed it; exit 137 by contract), resume it to
# completion from the same checkpoint directory, and demand the Pareto
# artifact be byte-identical to an uninterrupted run's.
tune_resume() {
    dir=$(mktemp -d)
    seed=42
    kill_cell=$((seed % 5 + 2))
    set +e
    ./target/release/qnn tune smoke --seed "$seed" --resume "$dir/ckpt" \
        --kill-cell "$kill_cell" --out "$dir/PARETO_killed.json" \
        > "$dir/killed.txt" 2>&1
    code=$?
    set -e
    if [ "$code" -ne 137 ]; then
        echo "killed tune should exit 137 (SIGKILL), got $code" >&2
        cat "$dir/killed.txt" >&2
        return 1
    fi
    ./target/release/qnn tune smoke --seed "$seed" --resume "$dir/ckpt" \
        --out "$dir/PARETO_resumed.json"
    ./target/release/qnn tune smoke --seed "$seed" --out "$dir/PARETO_plain.json"
    cmp "$dir/PARETO_resumed.json" "$dir/PARETO_plain.json"
    rm -rf "$dir"
}

# Waits for process PID to write a non-empty port file FILE (up to
# 10 s); fails naming the file if it never appears or PID dies first.
wait_port() {
    tries=0
    while [ "$tries" -lt 100 ]; do
        [ -s "$1" ] && return 0
        kill -0 "$2" 2>/dev/null || break
        sleep 0.1
        tries=$((tries + 1))
    done
    echo "$STAGE: $1 was never written (pid $2)" >&2
    return 1
}

# Single-server soak gates (serve-soak, and reload-soak with --cycles 8):
# run the release server in the background with a trace, hammer it from
# 4 client threads with 256 requests cycling through every Table III
# precision, and demand every response be bit-identical to a local
# forward on whichever model version the server accepted it under —
# across every live reload, with zero drops or hangs. --shutdown drains
# the server, which must then exit cleanly; the trace (TRACE) is
# summarized into SUMMARY. The server is always torn down, pass or fail.
soak_server() {
    trace="$1"
    summary="$2"
    shift 2
    dir=$(mktemp -d)
    ./target/release/qnn serve --addr 127.0.0.1:0 --port-file "$dir/port" \
        --trace "$trace" > "$dir/server.log" 2>&1 &
    server_pid=$!
    set +e
    wait_port "$dir/port" "$server_pid" \
        && ./target/release/qnn-bench serve-soak --addr "$(cat "$dir/port")" \
            --clients 4 --requests 256 --dir "$dir/ckpts" --shutdown "$@" \
        && wait "$server_pid"
    code=$?
    # Teardown even on failure: nothing may outlive the stage.
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
    set -e
    cat "$dir/server.log"
    rm -rf "$dir"
    if [ "$code" -eq 0 ]; then
        ./target/release/qnn-bench trace-summary "$trace" | tee "$summary"
    fi
    return "$code"
}

# Cluster-soak gate: boot a router over three shard workers on loopback,
# soak it from 4 client threads, and SIGKILL one shard at a seed-derived
# point mid-soak. Passes only if every response is bit-identical to a
# local single-shot forward (typed retryable rejections are retried,
# never excused into wrong answers), the victim died by SIGKILL (exit
# 137), the survivors and the router drain cleanly, and the router's
# trace (router-trace.jsonl / cluster-trace-summary.txt) is collected.
cluster_soak() {
    dir=$(mktemp -d)
    for i in 1 2 3; do
        ./target/release/qnn shard --addr 127.0.0.1:0 \
            --port-file "$dir/s$i.port" > "$dir/s$i.log" 2>&1 &
        eval "s$i=\$!"
    done
    router=""
    set +e
    wait_port "$dir/s1.port" "$s1" && wait_port "$dir/s2.port" "$s2" \
        && wait_port "$dir/s3.port" "$s3"
    code=$?
    if [ "$code" -eq 0 ]; then
        ./target/release/qnn router \
            --shards "$(cat "$dir/s1.port"),$(cat "$dir/s2.port"),$(cat "$dir/s3.port")" \
            --addr 127.0.0.1:0 --port-file "$dir/r.port" \
            --heartbeat-ms 50 --k-misses 2 \
            --trace router-trace.jsonl > "$dir/router.log" 2>&1 &
        router=$!
        # Victim is shard 2; the kill point inside the soak is derived
        # from the soak seed, so the schedule is reproducible.
        wait_port "$dir/r.port" "$router" \
            && ./target/release/qnn-bench serve-soak --addr "$(cat "$dir/r.port")" \
                --clients 4 --requests 252 --kill-pid "$s2" --shutdown
        code=$?
    fi
    if [ "$code" -eq 0 ]; then
        # --shutdown drained the cluster: router and surviving
        # shards must exit 0, the victim must have died of SIGKILL.
        wait "$router" && wait "$s1" && wait "$s3"
        code=$?
        wait "$s2"
        victim=$?
        if [ "$code" -eq 0 ] && [ "$victim" -ne 137 ]; then
            echo "cluster-soak: victim shard exited $victim, expected 137 (SIGKILL)" >&2
            code=1
        fi
    fi
    # Teardown even on failure: nothing may outlive the stage.
    kill "$s1" "$s2" "$s3" 2>/dev/null
    [ -n "$router" ] && kill "$router" 2>/dev/null
    wait 2>/dev/null
    set -e
    cat "$dir"/*.log
    rm -rf "$dir"
    if [ "$code" -eq 0 ]; then
        ./target/release/qnn-bench trace-summary router-trace.jsonl \
            | tee cluster-trace-summary.txt
    fi
    return "$code"
}

# Restarts a durable server from the checkpoint chain in DIR (logging to
# DIR/LOG) and proves with reload-verify that it serves exactly one
# complete candidate bank of reload-chaos's seed schedule.
restart_and_verify() {
    : > "$1/port"
    ./target/release/qnn serve --addr 127.0.0.1:0 --port-file "$1/port" \
        --checkpoint "$1/bank.qnnf" > "$1/$2" 2>&1 &
    restart_pid=$!
    wait_port "$1/port" "$restart_pid" \
        && ./target/release/qnn-bench reload-verify --addr "$(cat "$1/port")" \
            --base 0x51AB --cycles 7
    rc=$?
    kill "$restart_pid" 2>/dev/null
    wait "$restart_pid" 2>/dev/null
    return "$rc"
}

# Reload-chaos gate: boot a durable server (--checkpoint), soak it with
# live reloads, and SIGKILL it at a seed-chosen cycle so the kill lands
# inside the load/canary/persist/swap window. The server must die by
# SIGKILL (exit 137), restart from its checkpoint chain, and serve
# exactly one complete candidate bank bit-identically — never a torn
# one. A second leg truncates the primary checkpoint and demands the
# restart fall back to the .bak rotation, still complete.
reload_chaos() {
    dir=$(mktemp -d)
    ./target/release/qnn serve --addr 127.0.0.1:0 --port-file "$dir/port" \
        --checkpoint "$dir/bank.qnnf" > "$dir/server.log" 2>&1 &
    server_pid=$!
    set +e
    wait_port "$dir/port" "$server_pid" \
        && ./target/release/qnn-bench serve-soak --addr "$(cat "$dir/port")" \
            --clients 4 --requests 192 --cycles 7 --dir "$dir/ckpts" \
            --kill-pid "$server_pid"
    code=$?
    if [ "$code" -eq 0 ]; then
        wait "$server_pid"
        victim=$?
        if [ "$victim" -ne 137 ]; then
            echo "reload-chaos: server exited $victim, expected 137 (SIGKILL)" >&2
            code=1
        fi
    fi
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
    if [ "$code" -eq 0 ]; then
        restart_and_verify "$dir" restart.log
        code=$?
    fi
    # Corrupt-primary leg: only meaningful once a promote rotated a .bak.
    if [ "$code" -eq 0 ] && [ -f "$dir/bank.qnnf.bak" ]; then
        printf 'torn by a crash' > "$dir/bank.qnnf"
        restart_and_verify "$dir" fallback.log \
            && grep -q 'recovered from' "$dir/fallback.log"
        code=$?
    fi
    set -e
    cat "$dir"/*.log
    rm -rf "$dir"
    return "$code"
}

# Writes ci-timings.json ({"stage","seconds"} per stage run, in run
# order) and prints the slowest stages first — the same table the
# workflow's timing-summary job posts to the job summary.
timing_summary() {
    {
        printf '{"schema": "qnn-ci/timings/v1", "stages": ['
        first=1
        for entry in $TIMINGS; do
            [ "$first" -eq 1 ] || printf ', '
            first=0
            printf '{"stage": "%s", "seconds": %s}' \
                "${entry%:*}" "${entry##*:}"
        done
        printf ']}\n'
    } > ci-timings.json
    echo "wrote ci-timings.json"
    echo "slowest stages first (seconds):"
    for entry in $TIMINGS; do
        printf '%6s  %s\n' "${entry##*:}" "${entry%:*}"
    done | sort -rn
}

stage fmt                 cargo fmt --all -- --check
stage clippy              cargo clippy --workspace --all-targets --offline -- -D warnings
stage build               cargo build --workspace --release --offline
stage test                cargo test --workspace -q --offline
stage bench-check         cargo run -p qnn-bench --release --offline -- bench-check
stage qkernels            cargo run -p qnn-bench --release --offline -- --quick qkernels
stage kernels-bench       cargo run -p qnn-bench --release --offline -- kernels-bench
stage kill-resume         kill_and_resume
stage thread-determinism  thread_determinism
stage tune-smoke          tune_smoke
stage tune-resume         tune_resume
stage serve-soak          soak_server serve-trace.jsonl serve-trace-summary.txt
stage serve-bench         cargo run -p qnn-bench --release --offline -- --quick serve-bench
stage cluster-soak        cluster_soak
stage reload-soak         soak_server reload-trace.jsonl reload-trace-summary.txt --cycles 8
stage reload-chaos        reload_chaos
stage sync-check          cargo run -p qnn-bench --release --offline -- sync-check
stage timing-summary      timing_summary
