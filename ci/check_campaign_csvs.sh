#!/usr/bin/env bash
# Compare every bench_results/EX-*.csv that `all_experiments` wrote with
# the committed one (`git show HEAD:`). Every cell must match exactly,
# except the cells listed in RACY: each of them moved between runs of one
# unchanged tree. They are the wall-clock columns, and two groups of I/O
# counts that depend on thread timing (EX-SQUEEZE's mid-run ratchet and
# EX-SHARD's 8-client waves). A CSV missing on either side fails too.
#
# Usage: ci/check_campaign_csvs.sh   (after all_experiments has run)
set -euo pipefail
cd "$(dirname "$0")/.."

# <csv id>|<column>|<rows: <column>=<value>, or empty for every row>
RACY='EX-PARALLEL|wall ms|
EX-PARALLEL|speedup|
EX-SQUEEZE|ms|
EX-SQUEEZE|ios|budget=ratchet
EX-SQUEEZE|verdict|budget=ratchet
EX-OBS|p50_us|
EX-OBS|p99_us|
EX-OBS|cold_p99_us|
EX-SHARD|p50_us|
EX-SHARD|p99_us|
EX-SHARD|query_ios|clients=8
EX-SHARD|ios/query|clients=8'

# Print the CSV on stdin with campaign $1's racy cells replaced by `*`.
mask() {
  RACY="$RACY" awk -F, -v OFS=, -v id="$1" '
    BEGIN {
      lines = split(ENVIRON["RACY"], rule, "\n")
      for (i = 1; i <= lines; i++) {
        split(rule[i], f, "|")
        if (f[1] == id) { n++; col[n] = f[2]; split(f[3], cond, "="); key[n] = cond[1]; val[n] = cond[2] }
      }
    }
    NR == 1 {
      for (i = 1; i <= NF; i++) at[$i] = i
      for (j = 1; j <= n; j++) {
        missing = !(col[j] in at) ? col[j] : (key[j] != "" && !(key[j] in at)) ? key[j] : ""
        if (missing != "") {
          print id ": no column " missing > "/dev/stderr"
          exit 2
        }
      }
      print
      next
    }
    {
      for (j = 1; j <= n; j++)
        if (key[j] == "" || $(at[key[j]]) == val[j]) $(at[col[j]]) = "*"
      print
    }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
committed=$(git ls-tree --name-only HEAD bench_results/ | grep '/EX-.*\.csv$' || true)
written=$(ls bench_results/EX-*.csv 2> /dev/null || true)
for f in $(printf '%s\n' $committed $written | sort -u); do
  id=$(basename "$f" .csv)
  if ! git cat-file -e "HEAD:$f" 2>/dev/null; then
    echo "$f: not committed"
    status=1
  elif [ ! -f "$f" ]; then
    echo "$f: not written"
    status=1
  else
    git show "HEAD:$f" | mask "$id" > "$tmp/want"
    mask "$id" < "$f" > "$tmp/got"
    if ! diff "$tmp/want" "$tmp/got" > "$tmp/diff"; then
      echo "$f differs from HEAD (racy cells shown as *):"
      cat "$tmp/diff"
      status=1
    fi
  fi
done
exit $status
