#!/usr/bin/env bash
# CI gate: the tier-1 verify command (ROADMAP.md) plus the sanitizer pass,
# with per-stage timing and a one-line recap so CI logs are skimmable.
#
# Usage: ./ci.sh            — everything: the release lane, then ASan/UBSan.
#        ./ci.sh release    — header reachability guard (every src/ header
#                             reached by non-test code), -Werror Release
#                             build, full ctest (including the paper-claims
#                             suite, which writes build/tests/claims.tsv,
#                             and every example run once), the A/B
#                             comparator's unit test, sweep-engine smoke (every
#                             specs/*.sweep under --dry-run, a wrong-scenario
#                             policy rejected, resume round-trip,
#                             thread determinism, distributed dispatch incl.
#                             localhost-TCP workers, a combinatorial CSO+CSR
#                             grid and benchmark-shaped SSO+SSR and CSO+CSR
#                             runs md5-pinned, uneven replication shards
#                             over 3 workers), serve smoke (real server
#                             + driver + SIGTERM drain, also at K = 10^4
#                             over 4 pipelined connections), replay smoke
#                             (offline panel over the serve log +
#                             logging-identity pin, also on the K = 10^4 log,
#                             + sharded 2-worker panel, with and without a
#                             SIGKILLed worker), metrics identity
#                             (event logs and decision dumps byte-identical
#                             with a plain server, a polled one, and one
#                             writing registry snapshots every 1 ms).
#        ./ci.sh asan       — ASan/UBSan build + test suite only. The release
#                             and asan lanes are disjoint so CI runs them as
#                             parallel jobs; the no-argument form is their
#                             union for local use.
#        ./ci.sh bench <base-rev>
#                           — same-host A/B of the repository benchmark
#                             (perfbench/): <base-rev> is checked out in a
#                             git worktree at build/bench_base, both sides
#                             run perfbench/run.py in interleaved pairs, and
#                             tools/bench_ab.py passes or fails the change
#                             (results and report in build/bench_ab/).
#        NCB_CI_JOBS=N ./ci.sh          — override parallelism.
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
# combinatorial policy (dfl-cso, dfl-csr, dfl-csr-greedy, cucb), on ≤M and
# exact-M families, three graph shapes. The 2-worker output must equal the
# in-process output, and both must match the md5 pinned when DFL-CSO still
# kept its own per-replication strategy graph and the exact oracles scanned
# every strategy: the strategy-graph sharing and the prefix-sum oracle
# kernel must not move a byte. (The CSO md5s were re-taken, with the
# sweep engine unchanged, when the grid dropped a deleted DFL-CSO variant;
# every remaining job is byte-identical to the grid's earlier output.)
comb_smoke() {
  local scenario exact policies name spec expected
  for scenario in cso csr; do
    for exact in false true; do
      if [ "$scenario" = cso ]; then
        policies='dfl-cso, cucb'
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
        cso-false) expected=f537493b46a5332b182745730d6ca1c8 ;;
        cso-true)  expected=b1313e5c788eff15cc0ffa526ae2edf6 ;;
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

# The K = 10^4 instance of the serve and replay smokes' large leg: sparse
# ER(0.001), the serving regime perfbench's serve pass measures.
LARGE_INSTANCE=(--arms 10000 --graph er --edge-prob 0.001 --seed 20170605)

# Serve smoke: a real ncb_serve process (engine + event log + reactor)
# answers 10k driver requests over 2 connections, then gets SIGTERM. The
# server must drain and exit 0, and the log must hold every decision with
# every feedback joined — the zero-torn/zero-lost-records guarantee, checked
# through the actual binaries on every CI run. A second server on the
# K = 10^4 instance then takes 20k decisions pipelined over 4 connections,
# under the same full-join check.
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

  sock=build/serve_large.sock
  log=build/serve_large.ncbl
  rm -f "$sock" "$log"
  ./build/examples/ncb_serve --socket "$sock" --policy 'eps-greedy:eps=0' \
      --epsilon 0.05 "${LARGE_INSTANCE[@]}" --log "$log" \
      > build/serve_large.out 2>&1 &
  server_pid=$!
  for _ in $(seq 1 200); do [ -S "$sock" ] && break; sleep 0.05; done
  if ! ./build/examples/ncb_serve_driver --socket "$sock" --requests 20000 \
      --connections 4 --keys 1024 "${LARGE_INSTANCE[@]}"; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    cat build/serve_large.out >&2
    return 1
  fi
  kill -TERM "$server_pid"
  wait "$server_pid"
  ./build/examples/ncb_serve --inspect-log "$log" \
      | tee build/serve_large.inspect
  grep -q 'records=40000 decisions=20000 feedbacks=20000 joined=20000' \
      build/serve_large.inspect
  echo "serve smoke: 20k decisions @ K=10^4 / 4 pipelined connections, 20000/20000 joined"
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
# copy of the log makes --inspect-log exit nonzero and say so; (e) the
# identity also holds on the K = 10^4 log of the serve smoke's large leg.
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
  ./build/examples/ncb_replay --log build/serve_large.ncbl \
      --logging-policy 'eps-greedy:eps=0' --policies 'eps-greedy:eps=0.1;ucb1' \
      "${LARGE_INSTANCE[@]}" --epsilon 0.05 --out build/replay_large.json \
      | tee build/replay_large.out
  grep -q 'logging identity OK' build/replay_large.out
  echo "replay smoke: logging identity pinned (K=200 and K=10^4), panel byte-identical, truncated log rejected"
}

asan() {
  cmake -B build-asan -S . -DNCB_SANITIZE=ON -DNCB_BUILD_BENCH=OFF \
        -DNCB_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

# Same-host A/B of the repository benchmark against <base-rev>. The base is
# checked out in a git worktree at build/bench_base (kept between runs, so
# its perfbench build stays incremental; `git worktree remove
# build/bench_base` drops it). AB_PAIRS interleaved pairs, alternating
# which side runs first; each pair runs, per side, one untraced
# `--workload all` pass (the end-to-end metrics) and one traced
# `--workload sweep-single` pass (the per-layer metrics). tools/bench_ab.py
# then fails the change on any incorrect run, a higher failed share, an
# end-to-end median worse than its BENCHMARK.json bound, or a guarded
# per-layer median above 1.5x; build/bench_ab/report.txt keeps its verdict.
AB_PAIRS=5
AB_SECONDS=5

bench_ab() {
  local rev="$1" base=build/bench_base out=build/bench_ab
  local sha pair kind side root name status
  local -a order args
  sha=$(git rev-parse --verify --quiet "${rev}^{commit}") || {
    echo "bench: '$rev' is not a commit" >&2
    return 2
  }
  mkdir -p build
  git worktree prune
  if [ -e "$base/.git" ]; then
    git -C "$base" checkout --quiet --force --detach "$sha"
  else
    rm -rf "$base"
    git worktree add --quiet --detach "$base" "$sha"
  fi
  rm -rf "$out"
  mkdir -p "$out"
  echo "bench: base $(git rev-parse --short "$sha") vs the working tree," \
       "$AB_PAIRS pairs of ${AB_SECONDS}s runs"
  for pair in $(seq 1 "$AB_PAIRS"); do
    order=(base change)
    [ $(( pair % 2 )) -eq 0 ] && order=(change base)
    for kind in all traced; do
      for side in "${order[@]}"; do
        root=.
        [ "$side" = base ] && root="$base"
        name="$out/$side-$pair-$kind"
        args=(--workload all --trace 0)
        [ "$kind" = traced ] && args=(--workload sweep-single --trace 1)
        status=0
        python3 "$root/perfbench/run.py" "${args[@]}" \
            --seconds "$AB_SECONDS" --out "$PWD/$name.json" \
            > "$name.log" 2>&1 || status=$?
        echo "  pair $pair $kind $side: exit $status"
        if [ ! -f "$name.json" ]; then
          tail -n 30 "$name.log" >&2
          return 1
        fi
      done
    done
  done
  python3 tools/bench_ab.py --base "$out"/base-*.json \
      --change "$out"/change-*.json | tee "$out/report.txt"
}

release_lane() {
  stage "reach" "reach guard: every src/ header has a non-test reacher" \
        reach_guard
  stage "tier-1" "tier-1: -Werror Release build + full test suite" tier1
  stage "bench-ab" "A/B comparator unit test: synthetic perfbench results" \
        python3 tools/test_bench_ab.py
  stage "sweep" "sweep smoke: resume + thread/worker determinism + kill-requeue" \
        sweep_smoke
  stage "serve" "serve smoke: 10k decisions / 2 connections, 20k @ K=10^4 / 4, SIGTERM drain" \
        serve_smoke
  stage "replay" "replay smoke: offline panel + logging-identity pin (K=200, K=10^4)" \
        replay_smoke
  stage "metrics" "metrics identity: bytes unchanged plain/polled/1 ms snapshots" \
        metrics_identity
}

asan_lane() {
  stage "asan" "sanitizers: ASan/UBSan build + test suite" asan
}

case "${1:-}" in
  bench)
    if [ $# -ne 2 ]; then
      echo "usage: $0 bench <base-rev>" >&2
      exit 2
    fi
    stage "bench" "bench: same-host A/B of perfbench against $2" bench_ab "$2"
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
    echo "usage: $0 [release|asan|bench <base-rev>]" >&2
    exit 2
    ;;
esac

echo "== CI green =="
recap_line=""
for r in "${RECAP[@]}"; do recap_line+="${recap_line:+ · }${r}"; done
echo "${recap_line}"
