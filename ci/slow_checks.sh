#!/usr/bin/env bash
# The checks that cannot be fast tier-1 tests.  The workflow and a local
# session run them the same way, from any directory:
#
#     bash ci/slow_checks.sh
#
# 1. the benchmark's self-tests (pytest perfbench);
# 2. a schedule that oscillates beyond resolution spends the stepper's real
#    budget of 100,000 step attempts (about 25 s on a 2-core VM);
# 3. the benchmark smoke run: every workload's oracle checks and traced
#    call sites, read from the "correct" field of its JSON summary.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== benchmark self-tests"
python3 -m pytest perfbench -q

echo "== a schedule that oscillates beyond resolution ends"
# sin(1e308 t) is noise at double precision, so the steps shrink toward
# 1e-8 and t_end 4 is out of reach; the stepper's budget must end the run
# with exit 1, one JSON step-budget line on stderr and no alphas.csv: the
# chart did not break down, the run was not resolved
printf '[hamiltonian]\na6 = A*sin(w*t)\na9 = 0.5\na10 = 0.5\na11 = B*cos(t)\na14 = C\na15 = -C\n\n[constants]\nA = 0.5\nw = 1e308\nB = 0.1\nC = 0.5\n\n[run]\nt_end = 4.0\n\n[outputs]\nalphas = alphas.csv\n' > "$dir/noise.cfg"
rc=0
timeout 300 python3 -m quadflow.cli run "$dir/noise.cfg" --outdir "$dir" \
    > "$dir/stdout.txt" 2> "$dir/stderr.txt" || rc=$?
[ "$rc" -eq 1 ] || { cat "$dir/stdout.txt" "$dir/stderr.txt"; echo "exit status $rc, expected 1"; exit 1; }
python3 -c 'import json, sys; (line,) = open(sys.argv[1]).read().splitlines(); assert json.loads(line)["error"] == "step-budget"' "$dir/stderr.txt" \
    || { cat "$dir/stderr.txt"; echo "expected one JSON step-budget line on stderr"; exit 1; }
if [ -e "$dir/alphas.csv" ]; then echo "alphas.csv was written"; exit 1; fi

echo "== benchmark smoke run"
# run.py exits 0 even when a check fails, so read "correct" from the JSON
# object on its last line; a crash leaves no JSON there
for w in landau_grid driven_breakdown verify_landau; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1 \
        | tail -n 1 \
        | python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)' \
        || { echo "benchmark checks failed on $w"; exit 1; }
done
echo "slow checks passed"
