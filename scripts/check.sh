#!/bin/sh
# Repo health check: full build, test suite, an engine bench smoke run that
# validates BENCH_engine.json, kernels + construction + resilience +
# scheduler bench smoke runs (the kernels smoke asserts workspace-reuse
# bitwise equality and that multi-domain colgen is no slower than one
# domain on a host with cores to scale onto; the scheduler smoke asserts
# the persistent domain pool is no slower per call than spawn-per-call
# and that the cross-job column pool preserves per-job results byte for
# byte), a fault-injection smoke (serve --fault-rate twice with the
# same seed and across domain counts must emit byte-identical per-job
# results, with every job served), a warm-cache determinism smoke (the
# default configuration, basis cache on, must serve the demo, the column
# pool workload and the fault-injection workload byte-identically at
# --domains 1 and 4), and a telemetry smoke run that
# validates the serve --metrics-out snapshot (parses, hot-path counters
# nonzero, counter totals identical across domain counts), an
# observability smoke (same-seed --events-out logs byte-identical across
# runs and domain counts, --trace-out validates as Chrome Trace JSON),
# and an http smoke (serve --listen on an ephemeral port, /metrics and
# /healthz scraped with the in-tree raw-socket client), and a served-
# benchmark smoke (one traced geo-repeat, colgen-mix and sinr-fresh
# perfbench run each at seed 1, whose last line must report "correct":
# true: feasibility, welfare <= LP objective, pass-to-pass byte identity
# and the layer-sum gate; each must also print its pinned results_md5 and
# lp.pivots, geo-repeat its pinned lp.refactorizations, and the two derand
# workloads their pinned derand.candidates), and an
# input-error smoke (a malformed workload file, and one with n=-1, each
# exit nonzero but not 125, naming their line).
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== format check (soft)"
if [ -f .ocamlformat ]; then
  dune build @fmt >/dev/null 2>&1 \
    || echo "   warning: dune build @fmt reports drift (non-fatal)"
else
  echo "   skipped: no .ocamlformat in repo"
fi

echo "== dune runtest"
dune runtest

echo "== bench smoke (engine group, quick mode)"
out="BENCH_engine.json"
rm -f "$out"
dune exec bench/main.exe -- --quick --engine-out "$out" >/dev/null

test -s "$out" || { echo "check: $out missing or empty" >&2; exit 1; }
for key in '"benchmark":"engine-batch"' '"cold":' '"warm":' '"warm_hit_rate":' \
           '"lp_speedup_warm_over_cold":' '"pivot_ratio_cold_over_warm":'; do
  grep -q -- "$key" "$out" || { echo "check: $out lacks $key" >&2; exit 1; }
done

echo "== kernels smoke (bench kernels, quick mode)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
# The multi-domain run uses at most as many domains as the host has cores:
# OCaml 5 minor collections stop every domain, so domains beyond the core
# count wait on descheduled peers and the comparison measures the host,
# not the fan-out.  A single-core host still runs 4 domains for the parity
# checks; its scaling assertion is skipped below.
rdom="$(sed -n 's/.*"recommended_domains":\([0-9]*\).*/\1/p' "$out" | head -n 1)"
test -n "$rdom" || { echo "check: $out lacks recommended_domains" >&2; exit 1; }
if [ "$rdom" -gt 1 ] && [ "$rdom" -lt 4 ]; then kdom="$rdom"; else kdom=4; fi
kout="$tmpdir/kernels.json"
dune exec bench/main.exe -- kernels --quick --domains "$kdom" \
  --kernels-out "$kout" >/dev/null

test -s "$kout" || { echo "check: $kout missing or empty" >&2; exit 1; }
for key in '"benchmark":"kernels"' '"graph":' '"is_independent":' '"lp":' \
           '"workspace":' '"alloc_ratio_fresh_over_reuse":' \
           '"pipeline":' '"naive":' '"sparse_d1":' '"sparse_dN":' '"alloc_bytes":' \
           '"speedup_incremental_over_naive":' '"scaling_dN_over_d1":'; do
  grep -q -- "$key" "$kout" || { echo "check: $kout lacks $key" >&2; exit 1; }
done

# the sparse bitset kernel must not be slower than the dense reference on
# the n>=200 graph case, and it must agree with it
gspeed="$(grep -o '"is_independent":{[^}]*}' "$kout" \
  | sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p')"
test -n "$gspeed" || { echo "check: $kout lacks graph speedup" >&2; exit 1; }
awk "BEGIN{exit !($gspeed >= 1.0)}" \
  || { echo "check: bitset kernel slower than dense ($gspeed x)" >&2; exit 1; }
grep -q '"agree":true' "$kout" \
  || { echo "check: bitset kernel disagrees with dense reference" >&2; exit 1; }

# warm re-solves on a reused workspace arena must be bitwise equal to
# fresh-arena re-solves while allocating less
grep -q '"bitwise_equal":true' "$kout" \
  || { echo "check: workspace reuse changed solve results" >&2; exit 1; }
wratio="$(sed -n 's/.*"alloc_ratio_fresh_over_reuse":\([0-9.]*\).*/\1/p' "$kout" | head -n 1)"
test -n "$wratio" || { echo "check: $kout lacks alloc ratio" >&2; exit 1; }
awk "BEGIN{exit !($wratio >= 1.0)}" \
  || { echo "check: arena reuse allocated more than fresh (${wratio}x)" >&2; exit 1; }

# naive and incremental colgen pricing walk the identical trajectory, so
# the two pipelines must generate the same columns and reach the same LP
# objective (dense-vs-revised simplex parity is covered by the test suite)
grep -q '"columns_equal":true' "$kout" \
  || { echo "check: pipeline columns differ naive vs incremental" >&2; exit 1; }
grep -q '"objective_delta":0.000000000' "$kout" \
  || { echo "check: pipeline objectives differ naive vs incremental" >&2; exit 1; }

# allocation telemetry must be reported for both domain counts; diff them
a1="$(grep -o '"sparse_d1":{[^{]*' "$kout" | grep -o '"alloc_bytes":[0-9]*')"
aN="$(grep -o '"sparse_dN":{[^{]*' "$kout" | grep -o '"alloc_bytes":[0-9]*')"
test -n "$a1" && test -n "$aN" \
  || { echo "check: $kout lacks alloc_bytes for d1/dN" >&2; exit 1; }
echo "   kernels: graph speedup ${gspeed}x; reuse allocates ${wratio}x less;" \
  "domains 1 ${a1#*:} B vs domains $kdom ${aN#*:} B allocated"

# multi-domain oracle pricing must not regress versus one domain — but the
# comparison is only meaningful when the host actually has cores to scale
# onto, so skip it when the runtime recommends a single domain
scaling="$(sed -n 's/.*"scaling_dN_over_d1":\([0-9.]*\).*/\1/p' "$kout" | head -n 1)"
if [ "$rdom" -gt 1 ]; then
  test -n "$scaling" || { echo "check: $kout lacks scaling ratio" >&2; exit 1; }
  awk "BEGIN{exit !($scaling >= 1.0)}" \
    || { echo "check: dN pricing slower than d1 (${scaling}x, $kdom of $rdom domains)" >&2; exit 1; }
  echo "   kernels: d$kdom over d1 scaling ${scaling}x with $rdom recommended domains"
else
  echo "   scaling assertion skipped (recommended_domains=$rdom)"
fi

echo "== construction smoke (bench construction, quick mode)"
cout="$tmpdir/construction.json"
dune exec bench/main.exe -- construction --quick --construction-out "$cout" >/dev/null

test -s "$cout" || { echo "check: $cout missing or empty" >&2; exit 1; }
for key in '"benchmark":"construction"' '"recommended_domains":' '"disk":' \
           '"thm13":' '"max_dropped_in_bound":'; do
  grep -q -- "$key" "$cout" || { echo "check: $cout lacks $key" >&2; exit 1; }
done

# the grid construction must agree with the naive reference everywhere and
# must not be slower than it on the n=1000 disk case
if grep -q '"agree":false' "$cout"; then
  echo "check: grid construction disagrees with naive reference" >&2; exit 1
fi
d1000="$(grep -o '"n":1000,[^{]*' "$cout")"
test -n "$d1000" || { echo "check: $cout lacks disk n=1000 case" >&2; exit 1; }
cspeed="$(printf '%s' "$d1000" | sed -n 's/.*"speedup":\([0-9.]*\).*/\1/p')"
test -n "$cspeed" || { echo "check: disk n=1000 case lacks speedup" >&2; exit 1; }
awk "BEGIN{exit !($cspeed >= 1.0)}" \
  || { echo "check: grid disk construction slower than naive (${cspeed}x)" >&2; exit 1; }
echo "   construction: disk n=1000 grid speedup ${cspeed}x, parity holds"

echo "== resilience bench smoke (bench resilience, quick mode)"
rbout="$tmpdir/resilience.json"
dune exec bench/main.exe -- resilience --quick --resilience-out "$rbout" >/dev/null

test -s "$rbout" || { echo "check: $rbout missing or empty" >&2; exit 1; }
for key in '"benchmark":"resilience"' '"baseline":' '"rate_025":' '"rate_050":' \
           '"wall_overhead_050_over_baseline":' '"faults_injected":'; do
  grep -q -- "$key" "$rbout" || { echo "check: $rbout lacks $key" >&2; exit 1; }
done
# under a 50% fault rate the fallback chain must still serve every job,
# and a same-seed re-run must reproduce the identical per-job results
grep -q '"all_jobs_served_at_050":true' "$rbout" \
  || { echo "check: jobs failed at fault rate 0.5" >&2; exit 1; }
grep -q '"same_seed_deterministic":true' "$rbout" \
  || { echo "check: fault injection not reproducible" >&2; exit 1; }

echo "== resilience smoke (serve --fault-rate, same-seed + cross-domain diff)"
rwl="examples/resilience.wl"
dune exec bin/auction.exe -- serve --workload "$rwl" --no-warm \
  --fault-rate 0.3 --fault-seed 7 --results-out "$tmpdir/r1.json" >/dev/null
dune exec bin/auction.exe -- serve --workload "$rwl" --no-warm \
  --fault-rate 0.3 --fault-seed 7 --results-out "$tmpdir/r2.json" >/dev/null
cmp "$tmpdir/r1.json" "$tmpdir/r2.json" \
  || { echo "check: same-seed fault runs produced different results" >&2; exit 1; }
dune exec bin/auction.exe -- serve --workload "$rwl" --no-warm --domains 4 \
  --fault-rate 0.3 --fault-seed 7 --results-out "$tmpdir/r4.json" >/dev/null
cmp "$tmpdir/r1.json" "$tmpdir/r4.json" \
  || { echo "check: fault results differ between --domains 1 and 4" >&2; exit 1; }
# the fallback chain must leave no job unserved at this rate...
if grep -q '"status":"failed"' "$tmpdir/r1.json"; then
  echo "check: serve --fault-rate 0.3 left failed jobs" >&2; exit 1
fi
# ...and the injected faults must actually push jobs off the LP tier
grep -Eq '"tier":"(greedy|online)"' "$tmpdir/r1.json" \
  || { echo "check: no job degraded to a fallback tier at rate 0.3" >&2; exit 1; }
echo "   resilience: same-seed and cross-domain results byte-identical"

echo "== scheduler smoke (bench scheduler, quick mode)"
sout="$tmpdir/scheduler.json"
dune exec bench/main.exe -- scheduler --quick --domains 4 \
  --scheduler-out "$sout" >/dev/null

test -s "$sout" || { echo "check: $sout missing or empty" >&2; exit 1; }
for key in '"benchmark":"scheduler"' '"small_batch":' '"skewed":' \
           '"column_pool":' '"spawn_per_call_us":' '"pool_per_call_us":' \
           '"ratio_static_over_adaptive":' '"rounds_saved":'; do
  grep -q -- "$key" "$sout" || { echo "check: $sout lacks $key" >&2; exit 1; }
done
# the persistent pool must not be slower per call than spawn-per-call, and
# every parity / determinism flag must hold
pspeed="$(sed -n 's/.*"speedup_pool_over_spawn":\([0-9.]*\).*/\1/p' "$sout" | head -n 1)"
test -n "$pspeed" || { echo "check: $sout lacks pool speedup" >&2; exit 1; }
awk "BEGIN{exit !($pspeed >= 1.0)}" \
  || { echo "check: pool slower than spawn-per-call (${pspeed}x)" >&2; exit 1; }
if grep -q '"parity":false' "$sout"; then
  echo "check: scheduler produced wrong results" >&2; exit 1
fi
grep -q '"objectives_bitwise_equal":true' "$sout" \
  || { echo "check: seeded colgen objectives differ from cold" >&2; exit 1; }
grep -q '"results_bytes_identical":true' "$sout" \
  || { echo "check: column-pool results differ from cold solve" >&2; exit 1; }
if grep -q '"same_seed_deterministic":false' "$sout"; then
  echo "check: column-pool runs not reproducible" >&2; exit 1
fi
echo "   scheduler: pool ${pspeed}x vs spawn-per-call, column-pool parity holds"

echo "== input error smoke (serve --workload on a malformed file)"
badwl="$tmpdir/bad.wl"
printf 'specauction-workload 1\nbatch model=protocol n=8 seed=1\nend\n' > "$badwl"
set +e
dune exec bin/auction.exe -- serve --workload "$badwl" >/dev/null 2>"$tmpdir/bad.err"
bad_status=$?
set -e
test "$bad_status" -ne 0 && test "$bad_status" -ne 125 \
  || { echo "check: malformed workload exited $bad_status (want nonzero, not 125)" >&2; exit 1; }
grep -q 'line 2' "$tmpdir/bad.err" \
  || { echo "check: malformed-workload message does not name line 2" >&2; exit 1; }
echo "   input errors: malformed workload exits $bad_status: $(head -n 1 "$tmpdir/bad.err")"
# a well-formed line with a number no batch accepts is rejected the same way
printf 'specauction-workload 1\n# comment\nbatch model=sinr n=-1 k=3\nend\n' > "$badwl"
set +e
dune exec bin/auction.exe -- serve --workload "$badwl" >/dev/null 2>"$tmpdir/bad.err"
bad_status=$?
set -e
test "$bad_status" -ne 0 && test "$bad_status" -ne 125 \
  || { echo "check: workload with n=-1 exited $bad_status (want nonzero, not 125)" >&2; exit 1; }
grep -q 'line 3' "$tmpdir/bad.err" \
  || { echo "check: n=-1 workload message does not name line 3" >&2; exit 1; }
echo "   input errors: n=-1 workload exits $bad_status: $(head -n 1 "$tmpdir/bad.err")"

echo "== column pool smoke (serve byte-identity, pool on vs --no-column-pool)"
cwl="examples/columns.wl"
dune exec bin/auction.exe -- serve --workload "$cwl" --no-warm \
  --results-out "$tmpdir/cp_on.json" >/dev/null
dune exec bin/auction.exe -- serve --workload "$cwl" --no-warm --no-column-pool \
  --results-out "$tmpdir/cp_off.json" >/dev/null
cmp "$tmpdir/cp_on.json" "$tmpdir/cp_off.json" \
  || { echo "check: column pool changed per-job results" >&2; exit 1; }
dune exec bin/auction.exe -- serve --workload "$cwl" --no-warm --domains 4 \
  --results-out "$tmpdir/cp_d4.json" >/dev/null
cmp "$tmpdir/cp_on.json" "$tmpdir/cp_d4.json" \
  || { echo "check: column-pool results differ between --domains 1 and 4" >&2; exit 1; }
echo "   column pool: results byte-identical with pool on/off and across domains"

echo "== warm-cache determinism smoke (default config, --domains 1 vs 4)"
# The smokes above pass --no-warm; these run the shipped configuration,
# with the LP basis cache on, and require the same per-job result bytes
# whatever the domain count.
warm_smoke() {
  name="$1"; shift
  dune exec bin/auction.exe -- serve "$@" --domains 1 \
    --results-out "$tmpdir/warm_${name}_d1.json" >/dev/null
  dune exec bin/auction.exe -- serve "$@" --domains 4 \
    --results-out "$tmpdir/warm_${name}_d4.json" >/dev/null
  cmp "$tmpdir/warm_${name}_d1.json" "$tmpdir/warm_${name}_d4.json" \
    || { echo "check: warm-cache $name results differ between --domains 1 and 4" >&2; exit 1; }
}
warm_smoke demo --demo
warm_smoke columns --workload "$cwl"
warm_smoke resilience --workload "$rwl" --fault-rate 0.3 --fault-seed 7
echo "   warm cache: demo, columns and resilience results byte-identical across domains"

echo "== served benchmark smoke (perfbench geo-repeat + colgen-mix + sinr-fresh, traced, correctness gates, pinned bits)"
# Each smoke must pass perfbench's own gates and reproduce the pinned
# served output: results_md5 and the simplex pivot count (and, on
# geo-repeat, the refactorization count; on the derand workloads, the
# derandomization candidate count, 12 derand jobs x 101^2).  LP engine
# and rounding changes that are meant to be bitwise-neutral keep these;
# any other change that moves them must re-pin them here and say why.
perfbench_smoke() {
  wl="$1"; md5="$2"; pivots="$3"; refac="$4"; cands="$5"
  pbout="$tmpdir/perfbench-$wl.txt"
  dune exec ./perfbench/main.exe -- --workload "$wl" --seed 1 --seconds 0.1 \
    --trace 1 > "$pbout" \
    || { tail -n 5 "$pbout" >&2; echo "check: perfbench $wl failed its gates" >&2; exit 1; }
  tail -n 1 "$pbout" | grep -q '"correct": true' \
    || { echo "check: perfbench $wl did not report \"correct\": true" >&2; exit 1; }
  grep -q "^results_md5 $md5\$" "$pbout" \
    || { echo "check: perfbench $wl $(grep '^results_md5' "$pbout"), want $md5" >&2; exit 1; }
  grep -Eq "^ +lp\.pivots +$pivots\.0+ count\$" "$pbout" \
    || { echo "check: perfbench $wl $(grep -E '^ +lp\.pivots ' "$pbout" | tr -s ' '), want $pivots" >&2; exit 1; }
  if [ -n "$refac" ]; then
    grep -Eq "^ +lp\.refactorizations +$refac\.0+ count\$" "$pbout" \
      || { echo "check: perfbench $wl $(grep -E '^ +lp\.refactorizations ' "$pbout" | tr -s ' '), want $refac" >&2; exit 1; }
  fi
  if [ -n "$cands" ]; then
    grep -Eq "^ +derand\.candidates +$cands\.0+ count\$" "$pbout" \
      || { echo "check: perfbench $wl $(grep -E '^ +derand\.candidates ' "$pbout" | tr -s ' '), want $cands" >&2; exit 1; }
  fi
  echo "   perfbench: $wl seed 1 correct (results_md5 $md5, $pivots pivots${refac:+, $refac refactorizations}${cands:+, $cands derand candidates})"
}
perfbench_smoke geo-repeat 59b5e8e8643b4acfdf82eaccd770415d 8454 48 ""
perfbench_smoke colgen-mix db6cc8b779a9dc7526ef2fe65fb9169c 9524 "" 122412
perfbench_smoke sinr-fresh 5bdc332bcf3bbd9347c2108b883a45cc 2006 "" 122412

echo "== telemetry smoke (serve --demo --metrics-out)"
snap="$tmpdir/metrics.json"
dune exec bin/auction.exe -- serve --demo --metrics-out "$snap" >/dev/null

# the snapshot must parse back (auction metrics re-reads it with the
# in-tree JSON parser and exits nonzero on any malformation)
dune exec bin/auction.exe -- metrics "$snap" >/dev/null

# hot-path counters the demo workload must have exercised
for counter in '"lp.revised.pivots": *[1-9]' \
               '"engine.basis.lookups": *[1-9]' \
               '"engine.topology.hits": *[1-9]' \
               '"core.rounding.trials": *[1-9]'; do
  grep -Eq -- "$counter" "$snap" \
    || { echo "check: $snap lacks nonzero $counter" >&2; exit 1; }
done
# schema completeness: pre-registered even when the path never ran
grep -q '"core.colgen.oracle_calls":' "$snap" \
  || { echo "check: $snap lacks core.colgen.oracle_calls" >&2; exit 1; }

echo "== telemetry determinism (counters identical across --domains 1/4)"
dune exec bin/auction.exe -- serve --demo --no-warm --domains 1 \
  --metrics-out "$tmpdir/d1.json" >/dev/null
dune exec bin/auction.exe -- serve --demo --no-warm --domains 4 \
  --metrics-out "$tmpdir/d4.json" >/dev/null
# engine.pool.* counters are scheduler occupancy, not algorithmic work:
# a --domains 1 run bypasses the pool entirely and chunk/steal counts are
# timing-dependent, so they are excluded from the determinism diff.
# lp.workspace.* counters track per-domain arena capacity (one scratch
# arena per domain grows independently), so they too depend on the
# domain count without affecting any solve result.
sed -n '/"counters": {/,/^  },/p' "$tmpdir/d1.json" \
  | grep -v -e '"engine\.pool\.' -e '"lp\.workspace\.' > "$tmpdir/c1"
sed -n '/"counters": {/,/^  },/p' "$tmpdir/d4.json" \
  | grep -v -e '"engine\.pool\.' -e '"lp\.workspace\.' > "$tmpdir/c4"
test -s "$tmpdir/c1" || { echo "check: counter block extraction failed" >&2; exit 1; }
cmp "$tmpdir/c1" "$tmpdir/c4" \
  || { echo "check: counters differ between --domains 1 and 4" >&2; exit 1; }

echo "== observability smoke (event log determinism + chrome trace)"
dune exec bin/auction.exe -- serve --demo --no-warm \
  --events-out "$tmpdir/e1.jsonl" --trace-out "$tmpdir/t1.json" >/dev/null
dune exec bin/auction.exe -- serve --demo --no-warm \
  --events-out "$tmpdir/e2.jsonl" >/dev/null
cmp "$tmpdir/e1.jsonl" "$tmpdir/e2.jsonl" \
  || { echo "check: same-seed event logs differ" >&2; exit 1; }
dune exec bin/auction.exe -- serve --demo --no-warm --domains 4 \
  --events-out "$tmpdir/e4.jsonl" >/dev/null
cmp "$tmpdir/e1.jsonl" "$tmpdir/e4.jsonl" \
  || { echo "check: event logs differ between --domains 1 and 4" >&2; exit 1; }
test -s "$tmpdir/e1.jsonl" \
  || { echo "check: event log is empty" >&2; exit 1; }
for kind in job_accepted lp_solved tier_chosen guarantee_certified; do
  grep -q "\"kind\":\"$kind\"" "$tmpdir/e1.jsonl" \
    || { echo "check: event log lacks $kind events" >&2; exit 1; }
done
# the chrome trace must parse as valid Trace Event JSON (in-tree validator)
dune exec bin/auction.exe -- trace "$tmpdir/t1.json" >/dev/null \
  || { echo "check: chrome trace failed validation" >&2; exit 1; }
echo "   observability: event logs byte-identical, chrome trace valid"

echo "== http smoke (auction serve --listen, raw-socket scrape)"
# run the built binary directly so the background server does not hold the
# dune build lock; port 0 picks an ephemeral port printed on stdout
srvlog="$tmpdir/serve.log"
./_build/default/bin/auction.exe serve --demo --listen 0 > "$srvlog" 2>&1 &
srvpid=$!
port=""
for _ in $(seq 1 50); do
  if grep -q 'serving /metrics /healthz /jobs' "$srvlog"; then
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$srvlog" | head -n 1)"
    break
  fi
  sleep 0.2
done
test -n "$port" \
  || { kill "$srvpid" 2>/dev/null; echo "check: serve --listen never came up" >&2; exit 1; }
hz="$tmpdir/healthz.txt"
mtx="$tmpdir/scrape.txt"
./_build/default/bin/auction.exe get --port "$port" /healthz > "$hz" \
  || { kill "$srvpid" 2>/dev/null; echo "check: /healthz scrape failed" >&2; exit 1; }
grep -q '^ok$' "$hz" \
  || { kill "$srvpid" 2>/dev/null; echo "check: /healthz body wrong" >&2; exit 1; }
./_build/default/bin/auction.exe get --port "$port" /metrics > "$mtx" \
  || { kill "$srvpid" 2>/dev/null; echo "check: /metrics scrape failed" >&2; exit 1; }
for metric in specauction_engine_jobs specauction_lp_revised_pivots \
              specauction_engine_job_retries specauction_telemetry_events_logged; do
  grep -q "^$metric " "$mtx" \
    || { kill "$srvpid" 2>/dev/null; echo "check: /metrics lacks $metric" >&2; exit 1; }
done
grep -q '^# HELP specauction_engine_jobs ' "$mtx" \
  || { kill "$srvpid" 2>/dev/null; echo "check: /metrics lacks HELP lines" >&2; exit 1; }
if ./_build/default/bin/auction.exe get --port "$port" /nothere >/dev/null 2>&1; then
  kill "$srvpid" 2>/dev/null
  echo "check: unknown path did not 404" >&2; exit 1
fi
kill "$srvpid" 2>/dev/null
wait "$srvpid" 2>/dev/null || true
echo "   http: /metrics and /healthz served on ephemeral port $port"

echo "check: OK ($out and telemetry snapshot well-formed)"
