#!/usr/bin/env bash
# A/B ledger workloads between two commits, the way choosing-metrics §8
# asks for a claim to be shown: PAIRS runs of each side, alternating which
# side goes first, then each side's median and quartiles and the number of
# pairs the change won.
#
#   scripts/ab.sh "WORKLOAD..." [PAIRS=10]   (or: make ab W="WORKLOAD..." [PAIRS=10])
#
# The first argument is one workload, a quoted list of them, or `all` for
# every workload BENCHMARK.json names; each side is built once for the
# whole list, then the workloads are run and reported one after another.
#
# Sides: base = AB_BASE (default HEAD~1), change = AB_NEW (default HEAD).
# A side given as `.` — or as any path with a `/` in it — is that
# directory as it stands, uncommitted edits included. Each commit is
# exported into a throwaway directory and the ledger package is built
# there with BENCHMARK.json's own command; the script then runs that
# command's driver entry (`--workload W --seed N --seconds S --trace 0`,
# S = BENCHMARK.json's run_seconds) and reads the metric lines it prints.
# It only ever invokes the ledger; it edits nothing.
set -euo pipefail

workloads=${1:?usage: scripts/ab.sh 'WORKLOAD...'|all [PAIRS=10]}
pairs=${2:-10}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_ref=${AB_BASE:-HEAD~1}
new_ref=${AB_NEW:-HEAD}

# The benchmark's command, run length and workload names, from
# BENCHMARK.json itself.
read -r seconds manifest all < <(python3 -c '
import json, sys
bench = json.load(open(sys.argv[1]))
command = bench["command"]
print(bench["run_seconds"], command[command.index("--manifest-path") + 1],
      *(w["name"] for w in bench["workloads"]))
' "$repo/BENCHMARK.json")
if [ "$workloads" = all ]; then workloads=$all; fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/rupcxx-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# checkout SIDE REF: print the directory holding REF's files.
checkout() {
    if [ "$2" = . ]; then
        echo "$repo"
    elif [[ $2 == */* ]]; then
        echo "$2"
    else
        mkdir "$tmp/$1-src"
        git -C "$repo" archive "$2" | tar -x -C "$tmp/$1-src"
        echo "$tmp/$1-src"
    fi
}

# build SIDE: compile SIDE's ledger package into its own target directory
# and copy the driver out, so the timed runs start no compiler.
build() {
    local src
    src=$(checkout "$1" "$2")
    echo "ab: building $1 ($2)" >&2
    (cd "$src" && CARGO_TARGET_DIR="$tmp/$1-target" \
        cargo build --release --quiet --offline --manifest-path "$manifest")
    cp "$tmp/$1-target/release/ledger" "$tmp/$1-ledger"
}
build base "$base_ref"
build new "$new_ref"

# run SIDE PAIR: one driver run of $workload; appends its metric lines to
# SIDE.$workload.log.
run() {
    (cd "$tmp" && "./$1-ledger" --workload "$workload" --seed $((2 + $2)) \
        --seconds "$seconds" --trace 0) |
        awk -v pair="$2" '$2 == "'"$workload"'" && NF == 4 { print pair, $1, $3 }' >>"$tmp/$1.$workload.log"
}
for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) = 1 ]; then order="base new"; else order="new base"; fi
        for side in $order; do
            run "$side" "$pair"
        done
        echo "ab: $workload pair $pair/$pairs ($order)" >&2
    done

    python3 - "$tmp/base.$workload.log" "$tmp/new.$workload.log" "$workload" "$base_ref" "$new_ref" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

base_log, new_log, workload, base_ref, new_ref, bench = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}


def load(path):
    runs = {}
    for line in open(path):
        pair, metric, value = line.split()
        runs.setdefault(metric, {})[int(pair)] = float(value)
    return runs


def quartiles(runs):
    return statistics.quantiles(runs.values(), n=4, method="inclusive")


base, new = load(base_log), load(new_log)
print(f"{workload}: base {base_ref} vs change {new_ref}, {len(base['ops_per_s'])} pairs")
print(f"{'metric':<20}{'side':<8}{'q1':>14}{'median':>14}{'q3':>14}   change wins")
for metric in base:
    b, n = base[metric], new[metric]
    sign = 1 if better.get(metric, "lower") == "higher" else -1
    wins = sum(sign * n[p] > sign * b[p] for p in b)
    ties = sum(n[p] == b[p] for p in b)
    (bq1, bq2, bq3), (nq1, nq2, nq3) = quartiles(b), quartiles(n)
    print(f"{metric:<20}{'base':<8}{bq1:>14.6g}{bq2:>14.6g}{bq3:>14.6g}")
    print(f"{metric:<20}{'change':<8}{nq1:>14.6g}{nq2:>14.6g}{nq3:>14.6g}   {wins}/{len(b)} ({ties} ties)")
    if bq2:
        print(f"{'':<20}median {nq2 / bq2:.3f}x of base; gap {abs(nq2 - bq2):.6g} vs base IQR {bq3 - bq1:.6g}")
EOF
done
