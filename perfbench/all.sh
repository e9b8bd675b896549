#!/bin/sh
# Print the end-to-end metrics and fail_ratio of every workload, one fresh
# process per workload.  Usage, from the repository root:
#     sh perfbench/all.sh [SEED] [SECONDS]
set -e
for workload in chain_ed small_runs field_scan; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-25}" --trace 0 | grep -v '^[#{]'
done
