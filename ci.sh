#!/usr/bin/env bash
# CI gate: the tier-1 verify command (ROADMAP.md) plus the sanitizer pass,
# with per-stage timing and a one-line recap so CI logs are skimmable.
#
# Usage: ./ci.sh            — everything: the release lane, then ASan/UBSan.
#        ./ci.sh release    — header reachability guard (every src/ header
#                             reached by non-test code), -Werror Release
#                             build, full ctest (including the paper-claims
#                             suite, which writes build/tests/claims.tsv),
#                             observe-path smoke, sweep-engine smoke (every
#                             specs/*.sweep under --dry-run, a wrong-scenario
#                             policy rejected, resume round-trip,
#                             thread determinism, distributed dispatch incl.
#                             localhost-TCP workers, a combinatorial CSO+CSR
#                             grid and benchmark-shaped SSO+SSR and CSO+CSR
#                             runs md5-pinned, uneven replication shards
#                             over 3 workers), serve smoke (real server
#                             + driver + SIGTERM drain), replay smoke (offline
#                             panel over the serve log + logging-identity pin
#                             + sharded 2-worker panel, with and without a
#                             SIGKILLed worker), metrics identity
#                             (event logs and decision dumps byte-identical
#                             with a plain server, a polled one, and one
#                             writing registry snapshots every 1 ms).
#        ./ci.sh asan       — ASan/UBSan build + test suite only. The release
#                             and asan lanes are disjoint so CI runs them as
#                             parallel jobs; the no-argument form is their
#                             union for local use.
#        ./ci.sh bench      — -Werror Release build, then the tracked
#                             benchmark suites (micro_policies + scaling_k)
#                             in Google Benchmark JSON mode, merged into
#                             BENCH_graph.json at the repo root, plus the
#                             serve throughput bench into BENCH_serve.json and
#                             the offline replay panel bench into
#                             BENCH_replay.json.
#        NCB_CI_JOBS=N ./ci.sh          — override parallelism.
#        NCB_BENCH_MIN_TIME=0.5 ./ci.sh bench — slower, steadier timings.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${NCB_CI_JOBS:-$(nproc)}"
RECAP=()

# stage <short-label> <heading> <fn...>: run, time, and record for the recap.
stage() {
  local label="$1" heading="$2" t0 dt
  shift 2
  echo "== ${heading} =="
  t0=$(date +%s)
  "$@"
  dt=$(( $(date +%s) - t0 ))
  RECAP+=("${label} OK (${dt}s)")
}

# Reachability guard: every src/**/*.hpp must be #included by some non-test
# code — a file in src/ other than the header's own .cpp, or one in
# examples/, bench/ or perfbench/. A header whose .cpp defines a
# PolicyRegistration counts as reached (the registry reaches it by name).
# Code only tests reach is dead weight; it must go with its last caller.
reach_guard() {
  local hdr rel own reachers orphans=()
  while IFS= read -r hdr; do
    rel=${hdr#src/}
    own=${hdr%.hpp}.cpp
    reachers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
        "#include \"$rel\"" src examples bench perfbench || true)
    [ -n "$(grep -vxF "$own" <<< "$reachers" || true)" ] && continue
    [ -f "$own" ] && grep -Eq '\bPolicyRegistration[[:space:]]+k' "$own" \
        && continue
    orphans+=("$rel")
  done < <(find src -name '*.hpp' | sort)
  if [ "${#orphans[@]}" -gt 0 ]; then
    printf 'reach guard: no non-test code includes src/%s\n' "${orphans[@]}" >&2
    return 1
  fi
  echo "reach guard: every src/ header has a non-test reacher"
}

release_build() {
  cmake -B build -S . -DNCB_WERROR=ON
  cmake --build build -j "$JOBS"
}

tier1() {
  release_build
  (cd build && ctest --output-on-failure -j "$JOBS")
}

smoke() {
  if [ -x build/bench/micro_policies ]; then
    ./build/bench/micro_policies --benchmark_filter='ObservePerSlot' \
        --benchmark_min_time=0.01
  else
    echo "micro_policies not built (Google Benchmark absent) — smoke skipped"
  fi
}

# Sweep engine smoke: a tiny 2-policy grid (K <= 50) must (a) produce
# byte-identical, md5-pinned JSON across thread counts and shard sizes,
# (b) round-trip through the --max-jobs / --resume path to the exact bytes
# of an uninterrupted run, and (c) produce those same bytes from the
# distributed dispatch layer — with 2 worker processes, and again while
# one worker is SIGKILLed mid-run (the NCB_DIST_KILL_KEY crash injection
# of the shared worker loop; see src/dist/worker.hpp) so the requeue path
# is exercised on every CI run.
# The fig3 paper grid then repeats the 4-worker + kill comparison at full
# size. First, every checked-in spec must parse and expand (policy specs
# included) under --dry-run; the paper-claims suite in the tier-1 stage
# runs them.
sweep_smoke() {
  local spec=build/sweep_smoke.spec spec_file
  for spec_file in specs/*.sweep; do
    ./build/examples/ncb_sweep --spec "$spec_file" --dry-run > /dev/null
  done
  echo "sweep smoke: every specs/*.sweep expands under --dry-run"
  # A policy of the wrong scenario (DFL-SSR is a side-reward learner) must
  # fail expansion with exit 2 and list no job.
  cat > build/sweep_mismatch.spec <<'EOF'
name = ci-mismatch
scenario = sso
policies = dfl-sso, dfl-ssr
arms = 10
horizons = 100
replications = 2
EOF
  local status=0
  ./build/examples/ncb_sweep --spec build/sweep_mismatch.spec --dry-run \
      > build/sweep_mismatch.out 2> build/sweep_mismatch.err || status=$?
  [ "$status" -eq 2 ]
  grep -q "policy 'dfl-ssr' does not support scenario SSO" \
      build/sweep_mismatch.err
  if grep -q '\[0\]' build/sweep_mismatch.out; then
    echo "sweep smoke: the mismatched spec listed a job" >&2
    exit 1
  fi
  echo "sweep smoke: a policy the scenario does not support exits 2, no job"
  cat > "$spec" <<'EOF'
name = ci-smoke
scenario = sso
policies = moss, dfl-sso
graphs = er
arms = 50
p = 0.3
horizons = 400
replications = 6
checkpoints = 12
seed = 7
EOF
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_full.json \
      --csv build/sweep_full.csv --threads 4
  # Pinned before the replication drivers were folded into one loop: the
  # one-loop rewrite must not move a byte of sweep output.
  echo "02f994595cfe9dc5a0d21a92538cfe25  build/sweep_full.json" \
      | md5sum -c --quiet -
  # Shard-plan invariance: one-replication and four-replication shards, at
  # other thread counts, must land on the same bytes as the automatic plan.
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_shard1.json \
      --threads 2 --shard-size 1
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_shard4.json \
      --threads 3 --shard-size 4
  cmp build/sweep_full.json build/sweep_shard1.json
  cmp build/sweep_full.json build/sweep_shard4.json
  echo "sweep smoke: md5-pinned, byte-identical across --shard-size 1/4/auto"
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_resume.json \
      --threads 1 --max-jobs 1
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_resume.json \
      --threads 8 --resume
  cmp build/sweep_full.json build/sweep_resume.json
  echo "sweep smoke: resume round-trip byte-identical across 1/4/8 threads"

  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_dist.json \
      --workers 2
  cmp build/sweep_full.json build/sweep_dist.json
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --spec "$spec" \
      --out build/sweep_dist_kill.json --workers 2 \
      | tee build/sweep_dist_kill.log
  # The injection must actually have fired (guards against key drift).
  grep -q 'requeued 1 assignments' build/sweep_dist_kill.log
  cmp build/sweep_full.json build/sweep_dist_kill.json
  echo "sweep smoke: distributed (2 workers, incl. SIGKILLed worker) byte-identical"

  # Localhost-TCP transport: a --listen coordinator with two
  # --worker-connect workers, both carrying the kill key — the injection
  # fires on attempt 1 only, so exactly one worker dies mid-run and the
  # requeued attempt must still land on the reference bytes.
  rm -f build/sweep_tcp.port
  ./build/examples/ncb_sweep --spec "$spec" --out build/sweep_tcp.json \
      --listen 127.0.0.1:0 --port-file build/sweep_tcp.port \
      > build/sweep_tcp.log 2>&1 &
  local coordinator=$! port='' w1 w2
  for _ in $(seq 1 200); do
    [ -s build/sweep_tcp.port ] && { port=$(cat build/sweep_tcp.port); break; }
    sleep 0.05
  done
  [ -n "$port" ]
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --worker-connect "$port" > /dev/null 2>&1 &
  w1=$!
  NCB_DIST_KILL_KEY='sso:dfl-sso@er,K=50,p=0.3,n=400' \
      ./build/examples/ncb_sweep --worker-connect "$port" > /dev/null 2>&1 &
  w2=$!
  wait "$coordinator"
  wait "$w1" || true  # one of the two exits 137 (SIGKILL injection)
  wait "$w2" || true
  grep -q 'requeued 1 assignments' build/sweep_tcp.log
  cmp build/sweep_full.json build/sweep_tcp.json
  echo "sweep smoke: localhost TCP (2 workers, one SIGKILLed mid-run) byte-identical"

  # Benchmark-shaped single-play leg: the repository benchmark's K = 20
  # ER(0.3) instance for 20,000 slots, far past the O_i = 1 plateau, where
  # DFL-SSO and DFL-SSR keep off-plateau arms as bounds and DFL-SSR tracks
  # Ob_i per observation. Pinned before the register-resident reward row,
  # the tracked Ob_i and the bound-gated lazy refresh: none of them may
  # move a byte.
  local scenario policies expected
  for scenario in sso ssr; do
    if [ "$scenario" = sso ]; then
      policies='dfl-sso, moss'
      expected=2013e5480a4039696332e36a9d0888aa
    else
      policies='dfl-ssr, ucb1'
      expected=7a6d27fff8a551aaff658e6d5f424de0
    fi
    cat > "build/single_bench_$scenario.sweep" <<EOF
name = ci-bench-$scenario
scenario = $scenario
policies = $policies
graphs = er
arms = 20
p = 0.3
horizons = 20000
replications = 4
checkpoints = 30
seed = 1
EOF
    ./build/examples/ncb_sweep --spec "build/single_bench_$scenario.sweep" \
        --out "build/single_bench_$scenario.json" > /dev/null
    ./build/examples/ncb_sweep --spec "build/single_bench_$scenario.sweep" \
        --out "build/single_bench_$scenario.w2.json" --workers 2 > /dev/null
    cmp "build/single_bench_$scenario.json" \
        "build/single_bench_$scenario.w2.json"
    echo "$expected  build/single_bench_$scenario.json" | md5sum -c --quiet -
  done
  echo "sweep smoke: benchmark-shaped SSO+SSR runs byte-identical (2 workers) and md5-pinned"

  comb_smoke

  ./build/examples/ncb_sweep --spec specs/fig3.sweep \
      --out build/fig3_inproc.json
  NCB_DIST_KILL_KEY='sso:moss@er,K=100,p=0.3,n=10000' \
      ./build/examples/ncb_sweep --spec specs/fig3.sweep \
      --out build/fig3_dist.json --workers 4 \
      | tee build/fig3_dist.log
  grep -q 'requeued 1 assignments' build/fig3_dist.log
  cmp build/fig3_inproc.json build/fig3_dist.json
  echo "sweep smoke: fig3 across 4 workers (one SIGKILLed) byte-identical"
}

# Combinatorial leg of the sweep smoke: a tiny CSO + CSR grid over every
# combinatorial policy (dfl-cso, dfl-cso-observable, dfl-csr,
# dfl-csr-greedy, cucb), on ≤M and exact-M families, three graph shapes.
# The 2-worker output must equal the in-process output, and both must match
# the md5 pinned when DFL-CSO still kept its own per-replication strategy
# graph and the exact oracles scanned every strategy: the strategy-graph
# sharing and the prefix-sum oracle kernel must not move a byte.
comb_smoke() {
  local scenario exact policies name spec expected
  for scenario in cso csr; do
    for exact in false true; do
      if [ "$scenario" = cso ]; then
        policies='dfl-cso, dfl-cso-observable, cucb'
      else
        policies='dfl-csr, dfl-csr-greedy, cucb'
      fi
      name="$scenario-$exact"
      spec="build/comb_$name.sweep"
      cat > "$spec" <<EOF
name = ci-$scenario-exact-$exact
scenario = $scenario
policies = $policies
graphs = er, star, cliques
arms = 12
p = 0.3
horizons = 300
replications = 3
checkpoints = 10
strategy-size = 3
exact-size = $exact
seed = 11
EOF
      ./build/examples/ncb_sweep --spec "$spec" \
          --out "build/comb_$name.json" > /dev/null
      ./build/examples/ncb_sweep --spec "$spec" \
          --out "build/comb_$name.w2.json" --workers 2 > /dev/null
      cmp "build/comb_$name.json" "build/comb_$name.w2.json"
      case "$name" in
        cso-false) expected=6cbd982aabc33560164fe6da7c1d4e14 ;;
        cso-true)  expected=ef7f6743c2e974880c6b21370a49a8ea ;;
        csr-false) expected=1c35b50a8411aacd30e6f00f97b09aca ;;
        csr-true)  expected=d080cd03604bb5e0ed021afab38884fa ;;
      esac
      echo "$expected  build/comb_$name.json" | md5sum -c --quiet -
    done
  done
  echo "sweep smoke: combinatorial CSO+CSR grid byte-identical (2 workers) and md5-pinned"

  # Benchmark-shaped leg: the repository benchmark's combinatorial instance
  # (K = 20, ER(0.3), M <= 3, so |F| = 1,350) long enough to leave the
  # O_x = 1 plateau, where DFL-CSO keeps hot com-arms off their plateau
  # and its argmax spans six blocks. Pinned before the per-count width
  # memo, the two-level argmax skip, the branch-free oracle leaf scan and
  # DFL-CSO's presized staging buffer: none of them may move a byte.
  for scenario in cso csr; do
    if [ "$scenario" = cso ]; then
      policies='dfl-cso, cucb'
      expected=057540691a4a0e9abfdb1e76b2abde37
    else
      policies='dfl-csr, cucb'
      expected=d0063650010a36b736b7325356a23c3e
    fi
    spec="build/comb_bench_$scenario.sweep"
    cat > "$spec" <<EOF
name = ci-bench-$scenario
scenario = $scenario
policies = $policies
graphs = er
arms = 20
p = 0.3
horizons = 5000
replications = 2
checkpoints = 30
strategy-size = 3
seed = 1
EOF
    ./build/examples/ncb_sweep --spec "$spec" \
        --out "build/comb_bench_$scenario.json" > /dev/null
    ./build/examples/ncb_sweep --spec "$spec" \
        --out "build/comb_bench_$scenario.w2.json" --workers 2 > /dev/null
    cmp "build/comb_bench_$scenario.json" "build/comb_bench_$scenario.w2.json"
    echo "$expected  build/comb_bench_$scenario.json" | md5sum -c --quiet -
  done
  echo "sweep smoke: benchmark-shaped CSO+CSR runs byte-identical (2 workers) and md5-pinned"

  # Uneven shards: the benchmark's own CSO+CSR spec (8 replications) on
  # three single-thread workers is cut into 3 + 3 + 2 replication shards
  # per job, spread over workers that do not divide them; the coordinator's
  # in-order fold must still land on the in-process bytes.
  for scenario in cso csr; do
    if [ "$scenario" = cso ]; then
      policies='dfl-cso, cucb'
    else
      policies='dfl-csr, cucb'
    fi
    spec="build/comb_uneven_$scenario.sweep"
    cat > "$spec" <<EOF
name = ci-uneven-$scenario
scenario = $scenario
policies = $policies
graphs = er
arms = 20
p = 0.3
horizons = 5000
replications = 8
checkpoints = 30
strategy-size = 3
seed = 1
EOF
    ./build/examples/ncb_sweep --spec "$spec" \
        --out "build/comb_uneven_$scenario.json" > /dev/null
    ./build/examples/ncb_sweep --spec "$spec" \
        --out "build/comb_uneven_$scenario.w3.json" --workers 3 --threads 1 \
        | tee "build/comb_uneven_$scenario.w3.log"
    grep -q 'shards=3x3' "build/comb_uneven_$scenario.w3.log"
    cmp "build/comb_uneven_$scenario.json" "build/comb_uneven_$scenario.w3.json"
  done
  echo "sweep smoke: benchmark-shaped CSO+CSR over 3 workers (uneven 3+3+2 shards) byte-identical"
}

# Serve smoke: a real ncb_serve process (engine + event log + reactor)
# answers 10k driver requests over 2 connections, then gets SIGTERM. The
# server must drain and exit 0, and the log must hold every decision with
# every feedback joined — the zero-torn/zero-lost-records guarantee, checked
# through the actual binaries on every CI run.
serve_smoke() {
  local sock=build/serve_smoke.sock log=build/serve_smoke.ncbl server_pid
  rm -f "$sock" "$log" build/serve_smoke_metrics.json
  ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
      --epsilon 0.1 --arms 200 --graph er --edge-prob 0.1 --seed 7 \
      --log "$log" --metrics-out build/serve_smoke_metrics.json \
      --metrics-interval-ms 50 > build/serve_smoke.out 2>&1 &
  server_pid=$!
  for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
  if ! ./build/examples/ncb_serve_driver --socket "$sock" --requests 10000 \
      --connections 2 --keys 64 --arms 200 --graph er --edge-prob 0.1 \
      --seed 7; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    cat build/serve_smoke.out >&2
    return 1
  fi
  # Live stats poll against the still-running server: the counter the
  # driver just drove must be visible over the StatsRequest frame.
  ./build/examples/ncb_stats --socket "$sock" --raw \
      | tee build/serve_smoke.stats
  grep -q '^serve\.decide\.requests 10000$' build/serve_smoke.stats
  grep -q '^serve\.engine\.feedbacks 10000$' build/serve_smoke.stats
  kill -TERM "$server_pid"
  wait "$server_pid"  # non-zero exit (or a crash) fails the stage
  # The periodic snapshotter must have left a final JSON snapshot behind.
  grep -q '"schema": 1' build/serve_smoke_metrics.json
  grep -q '"serve.decide.requests": 10000' build/serve_smoke_metrics.json
  ./build/examples/ncb_serve --inspect-log "$log" \
      | tee build/serve_smoke.inspect
  grep -q 'records=20000 decisions=10000 feedbacks=10000 joined=10000' \
      build/serve_smoke.inspect
  grep -q '"duplicate_feedbacks": 0' build/serve_smoke.inspect
  echo "serve smoke: 10k decisions / 2 connections, 10000/10000 joined, live stats polled, clean SIGTERM drain"
}

# Metrics must observe, never steer: one lockstep workload against the
# same build/ binary as (a) a plain server, (b) that server hammered by
# ncb_stats --watch mid-run, and (c) that server with --metrics-interval-ms 1,
# so the snapshot writer walks the whole registry every reactor turn. Event
# logs and decision dumps must be byte-identical across all three.
metrics_identity() {
  local variant sock log dump server_pid watcher_pid
  local -a interval
  for variant in on polled snapshot; do
    sock="build/metrics_${variant}.sock"
    log="build/metrics_${variant}.ncbl"
    dump="build/metrics_${variant}.dump"
    rm -f "$sock" "$log" "$dump"
    interval=()
    [ "$variant" = snapshot ] && interval=(--metrics-interval-ms 1)
    ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
        --epsilon 0.1 --arms 200 --graph er --edge-prob 0.1 --seed 7 \
        --log "$log" --metrics-out "build/metrics_${variant}.json" \
        "${interval[@]}" > "build/metrics_${variant}.out" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
    watcher_pid=""
    if [ "$variant" = polled ]; then
      ./build/examples/ncb_stats --socket "$sock" --watch --interval-ms 5 \
          > /dev/null 2>&1 &
      watcher_pid=$!
    fi
    ./build/examples/ncb_serve_driver --socket "$sock" --requests 2000 \
        --connections 2 --keys 64 --arms 200 --graph er --edge-prob 0.1 \
        --seed 7 --lockstep --dump "$dump" > /dev/null
    if [ -n "$watcher_pid" ]; then
      kill -TERM "$watcher_pid" 2>/dev/null || true
      wait "$watcher_pid" || true
    fi
    kill -TERM "$server_pid"
    wait "$server_pid"
  done
  cmp build/metrics_on.ncbl build/metrics_polled.ncbl
  cmp build/metrics_on.ncbl build/metrics_snapshot.ncbl
  cmp build/metrics_on.dump build/metrics_polled.dump
  cmp build/metrics_on.dump build/metrics_snapshot.dump
  echo "metrics identity: logs + dumps byte-identical (plain / polled / 1 ms snapshots)"
}

# Replay smoke: the offline evaluator prices a candidate panel on the log
# the serve smoke just wrote, with the serving spec pinned as the logging
# policy. Asserts (a) the logging-identity line — the IPS estimate of the
# logging policy equals the log's empirical mean bitwise AND its replayed
# exploration draws reproduce every served action (matched == events), or
# ncb_replay exits 1 — on the real 2-connection log, the sharded run and
# the SIGKILL run alike; (b) the panel JSON carries the schema header and
# estimator fields; (c) a second run is byte-identical; (d) a truncated
# copy of the log makes --inspect-log exit nonzero and say so.
replay_smoke() {
  local log=build/serve_smoke.ncbl
  if [ ! -f "$log" ]; then
    echo "error: $log missing — replay smoke must run after serve smoke" >&2
    return 1
  fi
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --out build/replay_smoke.json | tee build/replay_smoke.out
  grep -q 'logging identity OK' build/replay_smoke.out
  grep -q '"schema": 1' build/replay_smoke.json
  grep -q '"ips_mean":' build/replay_smoke.json
  grep -q '"dr_mean":' build/replay_smoke.json
  grep -q '"ess":' build/replay_smoke.json
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --out build/replay_smoke_2.json > /dev/null
  cmp build/replay_smoke.json build/replay_smoke_2.json
  # Sharded panel: candidates fanned across 2 worker processes must
  # reassemble to the single-process bytes, logging identity included.
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --workers 2 --out build/replay_smoke_dist.json \
      | tee build/replay_smoke_dist.out
  grep -q 'logging identity OK' build/replay_smoke_dist.out
  cmp build/replay_smoke.json build/replay_smoke_dist.json
  # Requeue path: the worker first assigned the dfl-sso candidate SIGKILLs
  # itself (the NCB_DIST_KILL_KEY injection of the shared worker loop,
  # matched against the candidate spec); the retry must land on the same
  # bytes.
  NCB_DIST_KILL_KEY='dfl-sso' ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'ucb1;dfl-sso' \
      --arms 200 --graph er --edge-prob 0.1 --seed 7 --epsilon 0.1 \
      --workers 2 --out build/replay_smoke_kill.json \
      | tee build/replay_smoke_kill.out
  # The injection must actually have fired (guards against spec drift).
  grep -q 'requeued 1 candidates' build/replay_smoke_kill.out
  grep -q 'logging identity OK' build/replay_smoke_kill.out
  cmp build/replay_smoke.json build/replay_smoke_kill.json
  echo "replay smoke: sharded panel (2 workers, incl. SIGKILLed worker) byte-identical to single-process"
  # Chop the tail mid-record: inspect must refuse to call the log intact.
  local size
  size=$(stat -c %s "$log")
  head -c $(( size - 3 )) "$log" > build/replay_smoke_truncated.ncbl
  if ./build/examples/ncb_serve --inspect-log build/replay_smoke_truncated.ncbl \
      > build/replay_truncated.out 2>&1; then
    echo "error: --inspect-log exited 0 on a truncated log" >&2
    return 1
  fi
  grep -qi 'truncated' build/replay_truncated.out
  echo "replay smoke: logging identity pinned, panel byte-identical, truncated log rejected"
}

asan() {
  cmake -B build-asan -S . -DNCB_SANITIZE=ON -DNCB_BUILD_BENCH=OFF \
        -DNCB_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

# Tracked benchmarks: micro_policies (policy/substrate hot paths) and
# scaling_k (relation-graph large-K hot paths), merged into one JSON file
# that seeds the perf trajectory. Keep BENCH_graph.json committed so every
# PR's numbers land in history.
bench_tracked() {
  if [ ! -x build/bench/micro_policies ] || [ ! -x build/bench/scaling_k ]; then
    echo "error: Google Benchmark binaries missing — cannot run tracked benches" >&2
    exit 1
  fi
  local min_time="${NCB_BENCH_MIN_TIME:-0.05}"
  ./build/bench/micro_policies --benchmark_out=build/bench_micro.json \
      --benchmark_out_format=json --benchmark_min_time="$min_time"
  ./build/bench/scaling_k --benchmark_out=build/bench_scaling.json \
      --benchmark_out_format=json --benchmark_min_time="$min_time"
  python3 - <<'PY'
import json

merged = {"schema": 1, "benches": {}}
for name, path in (("micro_policies", "build/bench_micro.json"),
                   ("scaling_k", "build/bench_scaling.json")):
    with open(path) as f:
        merged["benches"][name] = json.load(f)
with open("BENCH_graph.json", "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print("wrote BENCH_graph.json")
PY
  bench_regression_guard
}

# Regression guard over the tracked hot-path benches: compare the fresh
# timings against the committed BENCH_graph.json baseline (HEAD) and fail
# if any guarded benchmark got more than 1.5x slower. The report always
# lands in build/bench_regression.txt (uploaded as a CI artifact) so a
# red run shows exactly which point moved. Benchmarks new in this run
# (absent from the baseline) are reported but never fail the guard.
bench_regression_guard() {
  if ! git show HEAD:BENCH_graph.json > build/bench_baseline.json 2>/dev/null; then
    echo "bench guard: no committed BENCH_graph.json baseline — skipped" \
        | tee build/bench_regression.txt
    return 0
  fi
  python3 - <<'PY'
import json
import sys

GUARDED_PREFIXES = ("BM_DflSsoSlot", "BM_ClosedNeighborhoodSweep")
THRESHOLD = 1.5

def guarded_times(path):
    with open(path) as f:
        merged = json.load(f)
    out = {}
    for suite in merged.get("benches", {}).values():
        for b in suite.get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue
            name = b["name"]
            if name.startswith(GUARDED_PREFIXES):
                # One entry per name in our suites; keep the median-like
                # real_time google-benchmark reports for the run.
                out[name] = (b["real_time"], b["time_unit"])
    return out

base = guarded_times("build/bench_baseline.json")
fresh = guarded_times("BENCH_graph.json")
lines, failures = [], []
for name in sorted(fresh):
    t, unit = fresh[name]
    if name not in base:
        lines.append(f"NEW      {name}: {t:.1f} {unit} (no baseline)")
        continue
    t0, unit0 = base[name]
    if unit0 != unit:
        lines.append(f"SKIP     {name}: unit changed {unit0} -> {unit}")
        continue
    ratio = t / t0 if t0 > 0 else float("inf")
    tag = "REGRESS " if ratio > THRESHOLD else ("OK      " if ratio >= 1 else "FASTER  ")
    lines.append(f"{tag} {name}: {t0:.1f} -> {t:.1f} {unit} ({ratio:.2f}x)")
    if ratio > THRESHOLD:
        failures.append(name)
for name in sorted(set(base) - set(fresh)):
    lines.append(f"GONE     {name}: present in baseline, missing from run")

report = "\n".join(lines) + "\n"
with open("build/bench_regression.txt", "w") as f:
    f.write(report)
sys.stdout.write(report)
if failures:
    print(f"bench guard: {len(failures)} benchmark(s) regressed beyond "
          f"{THRESHOLD}x -- see build/bench_regression.txt")
    sys.exit(1)
print("bench guard: no tracked benchmark regressed beyond 1.5x")
PY
}

# Serve throughput bench: the load driver against a real K=10^4 server
# (event log on), merged into tracked BENCH_serve.json. Guard: fail when
# sustained QPS drops below 1/1.5 of the committed baseline.
bench_serve() {
  local sock=build/bench_serve.sock log=build/bench_serve.ncbl server_pid
  rm -f "$sock" "$log"
  ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
      --epsilon 0.05 --arms 10000 --graph er --edge-prob 0.001 \
      --seed 20170605 --log "$log" > build/bench_serve_server.out 2>&1 &
  server_pid=$!
  for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
  if ! ./build/examples/ncb_serve_driver --socket "$sock" --requests 200000 \
      --connections 4 --pipeline 8 --keys 1024 --arms 10000 --graph er \
      --edge-prob 0.001 --seed 20170605 --reward noisy \
      --out build/bench_serve_run.json; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    cat build/bench_serve_server.out >&2
    return 1
  fi
  kill -TERM "$server_pid"
  wait "$server_pid"
  # Every decision and every feedback must be in the log, fully joined.
  ./build/examples/ncb_serve --inspect-log "$log" \
      | tee build/bench_serve.inspect
  grep -q 'records=400000 decisions=200000 feedbacks=200000 joined=200000' \
      build/bench_serve.inspect
  if git show HEAD:BENCH_serve.json > build/bench_serve_baseline.json \
      2>/dev/null; then
    :
  else
    rm -f build/bench_serve_baseline.json
  fi
  # Metrics-overhead microbench: per-event instrument costs ride along in
  # BENCH_serve.json next to the end-to-end QPS, under the same 1.5x guard.
  if [ -x build/bench/obs_overhead ]; then
    ./build/bench/obs_overhead --benchmark_out=build/obs_overhead.json \
        --benchmark_out_format=json \
        --benchmark_min_time="${NCB_BENCH_MIN_TIME:-0.05}"
  else
    rm -f build/obs_overhead.json
  fi
  python3 - <<'PY'
import json
import os
import sys

THRESHOLD = 1.5

with open("build/bench_serve_run.json") as f:
    run = json.load(f)
payload = {"schema": 1, "serve": run}
if os.path.exists("build/obs_overhead.json"):
    with open("build/obs_overhead.json") as f:
        obs = json.load(f)
    payload["obs"] = {b["name"]: round(b["real_time"], 2)
                      for b in obs["benchmarks"]}
with open("BENCH_serve.json", "w") as f:
    json.dump(payload, f, indent=1)
    f.write("\n")
print(f"wrote BENCH_serve.json: {run['qps']:.0f} qps, "
      f"p50={run['p50_us']} us p99={run['p99_us']} us "
      f"p999={run['p999_us']} us"
      + (f", {len(payload.get('obs', {}))} obs microbenches"
         if "obs" in payload else ""))

if not os.path.exists("build/bench_serve_baseline.json"):
    print("serve bench guard: no committed BENCH_serve.json baseline — skipped")
    sys.exit(0)
with open("build/bench_serve_baseline.json") as f:
    base_all = json.load(f)
base = base_all["serve"]
ratio = base["qps"] / run["qps"] if run["qps"] > 0 else float("inf")
print(f"serve bench guard: qps {base['qps']:.0f} -> {run['qps']:.0f} "
      f"({ratio:.2f}x slower)" if ratio > 1 else
      f"serve bench guard: qps {base['qps']:.0f} -> {run['qps']:.0f} (faster)")
if ratio > THRESHOLD:
    print(f"serve bench guard: throughput regressed beyond {THRESHOLD}x")
    sys.exit(1)

worst_name, worst = "", 0.0
for name, base_ns in base_all.get("obs", {}).items():
    ns = payload.get("obs", {}).get(name)
    if ns is None or base_ns <= 0:
        continue
    obs_ratio = ns / base_ns
    print(f"obs bench guard: {name} {base_ns:.1f} -> {ns:.1f} ns "
          f"({obs_ratio:.2f}x)")
    if obs_ratio > worst:
        worst_name, worst = name, obs_ratio
if worst > THRESHOLD:
    print(f"obs bench guard: {worst_name} regressed beyond {THRESHOLD}x")
    sys.exit(1)
PY
}

# Replay panel throughput bench: re-price a 3-policy panel on the 400k-record
# log the serve bench just wrote (K=10^4), merged into tracked
# BENCH_replay.json. Guard: fail when panel events/s drops below 1/1.5 of
# the committed baseline. The logging-identity pin runs here too — ncb_replay
# exits 1 itself if the IPS-of-logging-policy identity breaks at this scale.
bench_replay() {
  local log=build/bench_serve.ncbl
  if [ ! -f "$log" ]; then
    echo "error: $log missing — replay bench must run after the serve bench" >&2
    return 1
  fi
  ./build/examples/ncb_replay --log "$log" \
      --logging-policy 'eps-greedy:eps=0' --policies 'eps-greedy:eps=0.1;ucb1' \
      --arms 10000 --graph er --edge-prob 0.001 --seed 20170605 \
      --epsilon 0.05 --out build/bench_replay_panel.json \
      --bench-out build/bench_replay_run.json | tee build/bench_replay.out
  grep -q 'logging identity OK' build/bench_replay.out
  python3 - <<'PY'
import json
import os
import sys

THRESHOLD = 1.5

with open("build/bench_replay_run.json") as f:
    run = json.load(f)
with open("BENCH_replay.json", "w") as f:
    json.dump({"schema": 1, "replay": run}, f, indent=1)
    f.write("\n")
print(f"wrote BENCH_replay.json: {run['events_per_s']:.0f} events/s "
      f"({run['records']} records x {run['policies']} policies in "
      f"{run['elapsed_s']:.2f} s)")

if os.system("git show HEAD:BENCH_replay.json > build/bench_replay_baseline.json 2>/dev/null") != 0:
    print("replay bench guard: no committed BENCH_replay.json baseline — skipped")
    sys.exit(0)
with open("build/bench_replay_baseline.json") as f:
    base = json.load(f)["replay"]
rate, base_rate = run["events_per_s"], base["events_per_s"]
ratio = base_rate / rate if rate > 0 else float("inf")
print(f"replay bench guard: {base_rate:.0f} -> {rate:.0f} events/s "
      + (f"({ratio:.2f}x slower)" if ratio > 1 else "(faster)"))
if ratio > THRESHOLD:
    print(f"replay bench guard: panel throughput regressed beyond {THRESHOLD}x")
    sys.exit(1)
PY
}

release_lane() {
  stage "reach" "reach guard: every src/ header has a non-test reacher" \
        reach_guard
  stage "tier-1" "tier-1: -Werror Release build + full test suite" tier1
  stage "smoke" "observe-path smoke: batched vs per-edge delivery must run" smoke
  stage "sweep" "sweep smoke: resume + thread/worker determinism + kill-requeue" \
        sweep_smoke
  stage "serve" "serve smoke: 10k decisions over 2 connections + SIGTERM drain" \
        serve_smoke
  stage "replay" "replay smoke: offline panel + logging-identity pin" \
        replay_smoke
  stage "metrics" "metrics identity: bytes unchanged plain/polled/1 ms snapshots" \
        metrics_identity
}

asan_lane() {
  stage "asan" "sanitizers: ASan/UBSan build + test suite" asan
}

case "${1:-}" in
  bench)
    stage "build" "-Werror Release build" release_build
    stage "bench" "tracked benches: micro_policies + scaling_k -> BENCH_graph.json" \
          bench_tracked
    stage "serve-bench" "serve bench: 200k decisions @ K=10^4 -> BENCH_serve.json" \
          bench_serve
    stage "replay-bench" "replay bench: 3-policy panel @ K=10^4 -> BENCH_replay.json" \
          bench_replay
    ;;
  release)
    release_lane
    ;;
  asan)
    asan_lane
    ;;
  "")
    release_lane
    asan_lane
    ;;
  *)
    echo "usage: $0 [release|asan|bench]" >&2
    exit 2
    ;;
esac

echo "== CI green =="
recap_line=""
for r in "${RECAP[@]}"; do recap_line+="${recap_line:+ · }${r}"; done
echo "${recap_line}"
