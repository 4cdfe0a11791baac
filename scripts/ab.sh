#!/usr/bin/env bash
# Paired A/B timing of the HEAD commit against BASE_REV: the two builds
# run alternately on the same host, so a step smaller than the host's
# drift between sessions still shows as a consistent per-pair ratio.
#
#   scripts/ab.sh BASE_REV [WORKLOAD [SECONDS [PAIRS [OUT]]]]
#
# Defaults: serve_mix, 10 s, 10 pairs, target/ab/ab.json. Both revisions
# are built offline in git worktrees under target/ab/ (the benchmark and
# the `sara` binary). Each pair runs, for each side, in an order that
# alternates from pair to pair:
#
#   * the benchmark workload, `run --workload W --seed 1 --seconds S
#     --trace 0`, reading every end-to-end metric of its result line;
#   * a `sara serve --workers 1` stdin transcript, the ten catalog jobs
#     cold and then 50 000 warm repeats at duration_ms 0.05, and the same
#     ten cold jobs alone, each three times: the difference of their
#     least user-CPU times over the warm count is `serve_warm_job_us`, a
#     warm job's server CPU.
#
# OUT gets, per metric, both sides' readings, the per-pair ratios
# head / base, their median and `agree`: how many pairs fall on the
# median's side of 1. Before the pairs, both sides answer a short
# transcript (the cold jobs, then each one warm) and must agree byte for
# byte apart from `elapsed_us`. BASE_REV equal to HEAD is the A/A check
# of the tool itself.
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev="${1:?usage: scripts/ab.sh BASE_REV [WORKLOAD [SECONDS [PAIRS [OUT]]]]}"
workload="${2:-serve_mix}"
seconds="${3:-10}"
pairs="${4:-10}"
out="${5:-target/ab/ab.json}"
warm_jobs=50000
ab=target/ab

# Checks `rev` out at worktree `dir` and builds its benchmark and CLI.
build() {
    local rev="$1" dir="$2"
    if [ -e "$dir" ]; then
        git -C "$dir" checkout --quiet --detach "$rev"
    else
        git worktree add --quiet --detach "$dir" "$rev"
    fi
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" -p sara-cli
}

mkdir -p "$ab"
base_sha=$(git rev-parse "$base_rev^{commit}")
head_sha=$(git rev-parse HEAD)
build "$base_sha" "$ab/base"
build "$head_sha" "$ab/head"

# The transcripts: one submit per catalog scenario, then the warm repeats.
catalog="$ab/catalog"
rm -rf "$catalog"
"$ab/head/target/release/sara" export "$catalog" > /dev/null
names=()
for doc in "$catalog"/*.scenario.json; do
    names+=("$(basename "$doc" .scenario.json)")
done
submit() {
    printf '{"format":"sara-serve/v1","type":"submit","id":"cat-%s","scenarios":["%s"],"duration_ms":0.05}\n' "$1" "$1"
}
for name in "${names[@]}"; do submit "$name"; done > "$ab/cold.ndjson"
cat "$ab/cold.ndjson" "$ab/cold.ndjson" > "$ab/check.ndjson"
{
    cat "$ab/cold.ndjson"
    for ((i = 0; i < warm_jobs; i++)); do submit "${names[i % ${#names[@]}]}"; done
} > "$ab/warm.ndjson"

mask() { sed 's/"elapsed_us":[0-9]*/"elapsed_us":0/'; }
for side in base head; do
    "$ab/$side/target/release/sara" serve --workers 1 < "$ab/check.ndjson" 2> /dev/null |
        mask > "$ab/replies-$side"
done
cmp -s "$ab/replies-base" "$ab/replies-head" ||
    { echo "ab: the two sides answer the transcript differently" >&2; exit 1; }

# The least user-CPU seconds of three `sara serve --workers 1` runs built
# at $1 on transcript $2.
serve_cpu() {
    local TIMEFORMAT=%3U
    for _ in 1 2 3; do
        { time "$1/target/release/sara" serve --workers 1 < "$2" > /dev/null 2>&1; } 2>&1
    done | sort -g | head -n 1
}

# Prints one `metric side value` row per reading of side $1.
measure() {
    local side="$1" dir="$ab/$1" line full cold
    line=$("$dir/benchmark/target/release/sara-benchmark" run --workload "$workload" \
        --seed 1 --seconds "$seconds" --trace 0 < /dev/null | tail -n 1)
    grep -q '"correct":true' <<< "$line" || { echo "ab: $side: $line" >&2; exit 1; }
    grep -o '"[a-z_]*":{"value":[-0-9.eE+]*' <<< "$line" |
        sed 's/^"\([a-z_]*\)":{"value":\(.*\)$/\1 '"$side"' \2/'
    full=$(serve_cpu "$dir" "$ab/warm.ndjson")
    cold=$(serve_cpu "$dir" "$ab/cold.ndjson")
    echo "serve_warm_job_us $side $(awk -v f="$full" -v c="$cold" -v n="$warm_jobs" 'BEGIN { print (f - c) / n * 1e6 }')"
}

rows="$ab/rows.txt"
: > "$rows"
for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        measure "$side" | sed "s/^/$pair /" >> "$rows"
    done
    echo "pair $((pair + 1)) of $pairs done" >&2
done

# rows: pair metric side value -> one JSON object per metric.
awk -v base="$base_sha" -v head="$head_sha" -v workload="$workload" \
    -v seconds="$seconds" -v pairs="$pairs" '
    { v[$2, $3, $1] = $4; if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 } }
    function list(m, side,   p, s) {
        for (p = 0; p < pairs; p++) s = s (p ? "," : "") v[m, side, p]
        return "[" s "]"
    }
    END {
        printf "{\"base\":\"%s\",\"head\":\"%s\",\"workload\":\"%s\",\"seconds\":%s,\"pairs\":%d,\"metrics\":{", base, head, workload, seconds, pairs
        for (i = 1; i <= n; i++) {
            m = order[i]
            k = 0
            for (p = 0; p < pairs; p++) r[k++] = v[m, "head", p] / v[m, "base", p]
            # insertion sort of the ratios for the median
            for (a = 1; a < k; a++) for (b = a; b > 0 && r[b - 1] > r[b]; b--) { t = r[b]; r[b] = r[b - 1]; r[b - 1] = t }
            med = (k % 2) ? r[int(k / 2)] : (r[k / 2 - 1] + r[k / 2]) / 2
            agree = 0; s = ""
            for (p = 0; p < pairs; p++) {
                x = v[m, "head", p] / v[m, "base", p]
                s = s (p ? "," : "") sprintf("%.4f", x)
                if ((x < 1 && med < 1) || (x > 1 && med > 1) || (x == 1 && med == 1)) agree++
            }
            printf "%s\"%s\":{\"base\":%s,\"head\":%s,\"ratios\":[%s],\"median_ratio\":%.4f,\"agree\":%d}", (i > 1 ? "," : ""), m, list(m, "base"), list(m, "head"), s, med, agree
        }
        print "}}"
    }' "$rows" > "$out"
echo "wrote $out" >&2
grep -o '"[a-z_]*":{"base":[^}]*' "$out" |
    sed 's/^"\([a-z_]*\)".*"median_ratio":\([0-9.]*\),"agree":\([0-9]*\)$/\1 median ratio \2, \3 of '"$pairs"' pairs agree/' >&2
