#!/bin/sh
# Aggregate every BENCH_*.json in the repo root into one BENCH_summary.json
# keyed by benchmark group name ("engine-batch", "kernels", "scheduler", ...).
# Each group file is a single JSON object with a "benchmark" field (the
# emission convention in bench/bench_util.ml).  A malformed group file —
# empty, or missing the "benchmark" field — aborts with a non-zero exit
# naming the offending file, so a truncated bench run cannot silently
# vanish from the summary.  Only the summary itself is skipped.  Usage:
#
#   scripts/bench_summary.sh [OUT]     # default OUT = BENCH_summary.json
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_summary.json}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

first=1
{
  printf '{'
  for f in BENCH_*.json; do
    [ -e "$f" ] || continue                    # unexpanded glob
    [ "$f" = "$(basename "$out")" ] && continue
    [ -s "$f" ] || { echo "bench_summary: malformed $f (empty file)" >&2; exit 1; }
    group="$(sed -n 's/.*"benchmark":"\([^"]*\)".*/\1/p' "$f" | head -n 1)"
    [ -n "$group" ] || {
      echo "bench_summary: malformed $f (no \"benchmark\" field)" >&2
      exit 1
    }
    [ $first -eq 1 ] || printf ','
    first=0
    printf '"%s":' "$group"
    tr -d '\n' < "$f"
  done
  printf '}\n'
} > "$tmp"

if [ $first -eq 1 ]; then
  echo "bench_summary: no BENCH_*.json groups found" >&2
  exit 1
fi

mv "$tmp" "$out"
trap - EXIT
groups="$(grep -o '"benchmark":"[^"]*"' "$out" | sed 's/.*:"\(.*\)"/\1/' | tr '\n' ' ')"
echo "bench_summary: wrote $out ($(wc -c < "$out" | tr -d ' ') bytes): $groups"
