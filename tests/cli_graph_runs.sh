#!/bin/sh
# Prints a transcript of ssr_cli runs off the complete graph (plus one
# complete-graph checkpoint run): each command line, its stdout and its
# exit code.  ctest compares the transcript byte for byte against
# tests/data/cli/graph_runs.txt, so a change to the stepping loop that
# moves any trajectory, checkpoint line or verdict shows up as a diff.
#
#   cli_graph_runs.sh <ssr_cli>
set -u

CLI=$1

run() {
  echo "\$ ssr_cli $*"
  "$CLI" "$@"
  echo "exit $?"
}

run --protocol=baseline --n=8 --graph=ring --max-time=500 --seed=13
run --protocol=baseline --n=8 --graph=star --max-time=500 --seed=3
run --protocol=baseline --n=8 --graph=path --max-time=500 --seed=4
run --protocol=baseline --n=8 --graph=gnp --max-time=2000 --seed=5 --show-agents
run --protocol=optimal --n=16 --graph=ring --max-time=2000 --seed=6
run --protocol=optimal --n=16 --graph=star --max-time=2000 --seed=7
run --protocol=optimal --n=16 --graph=path --max-time=2000 --seed=8
run --protocol=optimal --n=16 --graph=gnp --max-time=2000 --seed=9
run --protocol=loose --n=8 --t-max=40 --graph=ring --max-time=500 --seed=2
run --protocol=loose --n=4 --t-max=40 --graph=ring --max-time=500 --seed=2
run --protocol=optimal --n=16 --graph=gnp --graph-p=0.8 --trace-every=50 --max-time=400 --seed=11
run --protocol=baseline --n=12 --trace-every=2.5 --seed=5
