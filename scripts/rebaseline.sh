#!/usr/bin/env bash
# Regenerates every pin of simulated output after an intentional change to
# it (an ENGINE_VERSION bump), then prints what moved:
#
#   1. `SARA_UPDATE_GOLDENS=1 cargo test` rewrites every golden under a
#      `tests/data/` directory (the CLI outputs, the catalog report
#      digests, the refusal counts and the controller's command streams)
#      and the built-in catalog's documents under crates/scenarios/catalog/;
#   2. the benchmark (benchmark/, run as it is; nothing there is edited)
#      rewrites the digest column of tests/data/engine-digests.txt, one run
#      per row at seed 1 and the seconds the row names;
#   3. `sara repro` rewrites docs/reproduction.txt (one frame) and
#      docs/reproduction-100ms.txt (Figs. 5 and 9 over three frames).
#
# It ends with `git diff --stat` and the claim-by-claim diff of both
# snapshots, for the change's record. It takes no options and is not run
# by CI: CI checks the files it writes. Exit status 1 means some test
# failed while the goldens were rewritten (they all were).
#
# Usage: scripts/rebaseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
cargo build --release --offline
if ! SARA_UPDATE_GOLDENS=1 cargo test -q --offline --no-fail-fast; then
    echo "rebaseline: tests failed while rewriting goldens (see above)" >&2
    status=1
fi

digests=tests/data/engine-digests.txt
rows=$(grep -v '^#' "$digests" | awk 'NF')
updated=$(grep '^#' "$digests" || true)
while read -r workload seconds _; do
    if ! out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 < /dev/null); then
        printf '%s\n' "$out" >&2
        echo "rebaseline: the $workload benchmark run failed its checks" >&2
        exit 1
    fi
    digest=$(sed -n 's/^ *sim_digest \([0-9a-f]*\) .*/\1/p' <<< "$out")
    [ -n "$digest" ] || { echo "rebaseline: no sim_digest from $workload" >&2; exit 1; }
    echo "$workload $seconds $digest"
    updated+=$'\n'"$workload $seconds $digest"
done <<< "$rows"
printf '%s\n' "$updated" > "$digests"

./target/release/sara repro all > docs/reproduction.txt || [ $? -eq 1 ]
./target/release/sara repro fig5 fig9 --duration-ms 100 > docs/reproduction-100ms.txt \
    || [ $? -eq 1 ]

git --no-pager diff --stat
echo
echo "claims that moved:"
git --no-pager diff --no-color -U0 -- docs/reproduction.txt docs/reproduction-100ms.txt \
    | grep -E '^(\+\+\+ |[-+](\[( ok |FAIL)\]|[0-9]+ of [0-9]+ claims hold))' \
    || echo "  none"
exit "$status"
