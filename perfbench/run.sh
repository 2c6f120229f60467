#!/usr/bin/env bash
# Build the benchmark and the bagcqc CLI from source, then run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to _build/ (dune's
# shared cache is off, so nothing is written outside the checkout); the
# traced run's span file and the serve workload's socket go to .perfbench/.
set -euo pipefail

# Ambient engine or pool settings would change what is measured.
unset BAGCQC_JOBS BAGCQC_LP BAGCQC_CONE BAGCQC_STORE BAGCQC_METRICS_PORT
export DUNE_CACHE=disabled

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

dune build --root . --display quiet perfbench/perfbench.exe bin/main.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
