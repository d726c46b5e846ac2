#!/usr/bin/env bash
# Runs every benchmark workload in turn, from the repository root:
#
#   bash perfbench/all.sh --seed 1 --seconds 30 --trace 0
#
# The arguments are passed to each run.  Each workload prints its own
# table and result line; the script exits non-zero if any run failed,
# including on a body or digest mismatch.
set -uo pipefail

status=0
for w in sim-sweep live-hot live-coop; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" "$@" || status=1
done
exit $status
