#!/usr/bin/env bash
# Runs every workload with the given flags and prints each one's result
# line, for a full end-to-end table in one command:
#
#   bash perfbench/all.sh --seed 1 --seconds 20 --trace 0
set -euo pipefail
for w in sweep-fig3 scatter-dsa serve-mix halo-cyclic; do
	printf '%s ' "$w"
	bash perfbench/run.sh --workload "$w" "$@" | tail -n 1
done
