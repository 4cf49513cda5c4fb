#!/usr/bin/env bash
# Check the partitions `emsplit partition` wrote to a directory: every
# part-*.bin holds between MIN and MAX records (8 bytes each), and each
# partition's largest key is at most the next partition's smallest.
#
# Usage: ci/check_partitions.sh DIR MIN MAX
set -euo pipefail
dir=$1
min=$2
max=$3
ranges=$(mktemp)
trap 'rm -f "$ranges"' EXIT
for f in "$dir"/part-*.bin; do
  n=$(($(stat -c %s "$f") / 8))
  if [ "$n" -lt "$min" ] || [ "$n" -gt "$max" ]; then
    echo "$f: $n records, outside [$min, $max]"
    exit 1
  fi
  od -An -v -t u8 -w8 "$f" |
    awk 'NR == 1 || $1 < lo { lo = $1 } NR == 1 || $1 > hi { hi = $1 } END { print lo, hi }' >> "$ranges"
done
awk -v dir="$dir" 'NR > 1 && $1 < prev {
    printf "%s: partition %d starts at %s, below the previous largest key %s\n", dir, NR - 1, $1, prev
    bad = 1
  }
  { prev = $2 }
  END { exit bad }' "$ranges"
