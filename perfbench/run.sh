#!/usr/bin/env bash
# Build the benchmark from source, then run it. From the root of a
# checkout:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
# Build messages go to standard error; the last line of standard output
# is the result. See perfbench/README.md.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
