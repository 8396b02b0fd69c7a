#!/bin/sh
# A plain ssr_cli run and the same run under --profile must print the same
# stdout, `stabilized at` line included: complete-graph runs always go
# through the selected engine, and profiling only attaches to it.
#
#   cli_profile_agreement.sh <ssr_cli>
set -eu

CLI=$1
WORK=$(mktemp -d cli_profile_agreement.XXXXXX)
trap 'rm -rf "$WORK"' EXIT INT TERM

check() {
  "$CLI" "$@" > "$WORK/plain.txt"
  SSR_PERF_DISABLE=1 "$CLI" "$@" --profile > "$WORK/profiled.txt"
  if ! cmp -s "$WORK/plain.txt" "$WORK/profiled.txt"; then
    echo "FAIL: plain and --profile runs differ for: $*" >&2
    diff "$WORK/plain.txt" "$WORK/profiled.txt" >&2 || true
    exit 1
  fi
  tail -n 1 "$WORK/plain.txt"
}

check --protocol=optimal --n=24 --scenario=no_leader --seed=3 | grep -q '^stabilized at'
check --protocol=baseline --n=12 --seed=5 | grep -q '^stabilized at'
check --protocol=sublinear --n=8 --h=2 --scenario=single_collision --seed=7 | grep -q '^stabilized at'
# Loose LE reports its final configuration instead of a ranking verdict.
check --protocol=loose --n=32 --seed=9 | grep -q ': 1 leader(s), '
echo "plain and --profile runs agree"
