#!/bin/sh
# Repo health check, in the order the steps run:
# - full build (`dune build @all`) and a soft format check;
# - the test suite (`dune runtest`);
# - timing gates (`bench/gates.exe`): bitset graph >= dense matrix, grid
#   disk construction >= all pairs, domain pool >= spawn-per-call and
#   multi-domain colgen + rounding >= one domain, each at >= 1.0x;
# - resilience smoke: serve --fault-rate twice with the same seed and at
#   --domains 4 must emit byte-identical per-job results, serve every job
#   and push some jobs onto a fallback tier;
# - input-error smoke: a malformed workload file, one with n=-1, and the
#   bad numeric flags serve --domains 0 and run -k 0 each exit nonzero but
#   not 125, the files naming their line;
# - column pool smoke: results byte-identical with the pool on or off and
#   at --domains 1 or 4;
# - warm-cache determinism smoke: the default configuration, basis cache
#   on, serves the demo, the column pool workload and the fault-injection
#   workload byte-identically at --domains 1 and 4;
# - served-benchmark smoke: one traced perfbench run each of geo-repeat,
#   colgen-mix and sinr-fresh at seed 1, and of colgen-mix and sinr-fresh
#   at seed 7, must report "correct": true and print its pinned
#   results_md5 and lp.pivots (geo-repeat and sinr-fresh seed 7 also
#   their lp.refactorizations, the derand workloads their
#   derand.candidates);
# - telemetry smoke: the serve --metrics-out snapshot parses, hot-path
#   counters are nonzero and counter totals match across --domains 1/4;
# - observability smoke: same-seed --events-out logs byte-identical across
#   runs and domain counts, and --trace-out validates as Chrome Trace JSON;
# - http smoke: serve --listen on an ephemeral port, /metrics and /healthz
#   scraped with the in-tree raw-socket client.
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

echo "== timing gates (bench/gates.exe)"
dune exec bench/gates.exe

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

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
# numeric flags outside their range are rejected before use
for flags in "serve --demo --domains 0" "run -k 0"; do
  set +e
  dune exec bin/auction.exe -- $flags >/dev/null 2>"$tmpdir/bad.err"
  bad_status=$?
  set -e
  test "$bad_status" -ne 0 && test "$bad_status" -ne 125 \
    || { echo "check: '$flags' exited $bad_status (want nonzero, not 125)" >&2; exit 1; }
  echo "   input errors: '$flags' exits $bad_status: $(head -n 1 "$tmpdir/bad.err")"
done

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
# Each smoke (workload, seed) must pass perfbench's own gates and
# reproduce the pinned served output: results_md5 and the simplex pivot
# count (and, where pinned, the refactorization count; on the derand
# workloads, the derandomization candidate count, 12 derand jobs x
# 101^2).  Seed 7 checks that a pin is not a property of one seed.  LP engine
# and rounding changes that are meant to be bitwise-neutral keep these;
# any other change that moves them must re-pin them here and say why.
perfbench_smoke() {
  wl="$1"; seed="$2"; md5="$3"; pivots="$4"; refac="$5"; cands="$6"
  pbout="$tmpdir/perfbench-$wl-$seed.txt"
  dune exec ./perfbench/main.exe -- --workload "$wl" --seed "$seed" --seconds 0.1 \
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
  echo "   perfbench: $wl seed $seed correct (results_md5 $md5, $pivots pivots${refac:+, $refac refactorizations}${cands:+, $cands derand candidates})"
}
perfbench_smoke geo-repeat 1 59b5e8e8643b4acfdf82eaccd770415d 8454 48 ""
perfbench_smoke colgen-mix 1 db6cc8b779a9dc7526ef2fe65fb9169c 9524 "" 122412
perfbench_smoke sinr-fresh 1 5bdc332bcf3bbd9347c2108b883a45cc 2006 "" 122412
perfbench_smoke colgen-mix 7 e1ede71d5d2d24c032631530ad10beaa 9860 "" 122412
perfbench_smoke sinr-fresh 7 859d4aeda72a133281519557fd2664ac 1984 36 122412
perfbench_smoke geo-repeat 7 1b96e99eca9127f7098eff548b64d59a 8800 49 ""

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

echo "check: OK"
