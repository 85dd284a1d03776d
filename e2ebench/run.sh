#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it:
#
#   bash e2ebench/run.sh --workload kernel-run|dse|serve --seed N --seconds S --trace 0|1
#   bash e2ebench/run.sh --short
#
# Run it from the root of an overgen source checkout.  Build output goes
# to stderr; the benchmark's result is the last line of stdout.
set -u

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/main.ml ]; then
  echo "e2ebench: run from the root of an overgen source checkout" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

# keep every build product inside the checkout
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./e2ebench/main.exe >&2; then
  echo "e2ebench: build failed" >&2
  exit 3
fi

# Run on one vCPU, the first this process may use.  serve's client, server
# thread and worker domain then hand each request over on one CPU; across
# two, every hand-over waits for the hypervisor to wake an idle vCPU, and
# that wait, not the program, set serve's latency.  The other workloads
# run on one thread either way.
cpu=$(taskset -pc $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/[-,].*//')
if [ -z "$cpu" ]; then
  echo "e2ebench: taskset is needed to run on one vCPU" >&2
  exit 3
fi
exec taskset -c "$cpu" ./_build/default/e2ebench/main.exe "$@"
