#!/usr/bin/env bash
# The checks that cannot be fast tier-1 tests.  The workflow and a local
# session run them the same way, from any directory:
#
#     bash ci/slow_checks.sh
#
# 1. the benchmark's self-tests (pytest perfbench);
# 2. tier-1 on numpy's baseline SIMD kernels, as a CPU without AVX2 or
#    AVX-512 runs them (about 20 s on a 2-core VM);
# 3. the writers' %.17g digits (quadflow.digits.g17) against '%.17g' % v
#    on 10,000,000 seeded doubles of tests/digits_fuzz.py's families, at
#    native and at baseline dispatch (16 to 27 s each on a 2-core VM);
# 4. a schedule that oscillates beyond resolution spends the stepper's real
#    budget of 100,000 step attempts (about 25 s on a 2-core VM);
# 5. verify on a flow whose classical oracle spends its real budget of
#    10,000 step attempts (about 3 s on a 2-core VM);
# 6. the contract fuzz's wide slice: 1,000 seeded configs with magnitudes
#    up to 1e+-300, each giving one of the three results that
#    tests/contract_fuzz.py asserts, and the histogram of those results
#    (about 22 s on a 2-core VM);
# 7. the benchmark smoke run: every workload's oracle checks and traced
#    call sites, read from the "correct" field of its JSON summary;
# 8. byte determinism: every case of ci/output_digests.py at seed 7 gives
#    the same digests under two different hash seeds (about 11 s per pass
#    on a 2-core VM).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== benchmark self-tests"
python3 -m pytest perfbench -q

echo "== tier-1 at numpy's baseline dispatch"
# the variable switches numpy's AVX2 and AVX-512 kernels off for this
# step's processes only
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
    python3 -m pytest tests -q -p no:cacheprovider

echo "== the %.17g digits against % on 10^7 doubles"
# prints the count of doubles, of mismatches and the seconds, and exits 1
# on any mismatch; warnings are errors, as in tier-1
python3 -W error::RuntimeWarning tests/digits_fuzz.py
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
    python3 -W error::RuntimeWarning tests/digits_fuzz.py

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

echo "== a classical oracle that spends its budget ends verify"
# the wide contract-fuzz draw 1031: the nilpotent a11 = a14 = 5.36e11
# shrinks the oracle's steps to about 1e-13, so its budget must end verify
# with exit 1, one JSON step-budget line on stderr and no row on stdout
printf '[hamiltonian]\na11 = c1\na14 = c1\n\n[constants]\nc1 = 536011115056.3461\n\n[run]\nt_end = 1.4302366244906548\nsamples = 3\n\n[outputs]\nalphas = alphas.csv\nheisenberg = heisenberg.json\n' > "$dir/hog.cfg"
rc=0
start=$SECONDS
timeout 120 python3 -m quadflow.cli verify --config "$dir/hog.cfg" \
    > "$dir/stdout.txt" 2> "$dir/stderr.txt" || rc=$?
echo "oracle budget: $((SECONDS - start)) s"
[ "$rc" -eq 1 ] || { cat "$dir/stdout.txt" "$dir/stderr.txt"; echo "exit status $rc, expected 1"; exit 1; }
python3 -c 'import json, sys; (line,) = open(sys.argv[1]).read().splitlines(); assert json.loads(line)["error"] == "step-budget"' "$dir/stderr.txt" \
    || { cat "$dir/stderr.txt"; echo "expected one JSON step-budget line on stderr"; exit 1; }
if [ -s "$dir/stdout.txt" ]; then cat "$dir/stdout.txt"; echo "verify printed rows"; exit 1; fi

echo "== the contract fuzz's wide slice"
# prints each draw that breaks the contract, then the histogram of results,
# and exits 1 if any draw broke it
start=$SECONDS
python3 tests/contract_fuzz.py
echo "wide slice: $((SECONDS - start)) s"

echo "== benchmark smoke run"
# run.py exits 0 even when a check fails, so read "correct" from the JSON
# object on its last line; a crash leaves no JSON there
for w in landau_grid driven_breakdown verify_landau; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 1 \
        | tail -n 1 \
        | python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)' \
        || { echo "benchmark checks failed on $w"; exit 1; }
done
echo "== the same bytes under two hash seeds"
# a fresh interpreter per case; set and dict order must not reach a byte
PYTHONHASHSEED=0 python3 ci/output_digests.py --seeds 7 > "$dir/digests_0.txt"
PYTHONHASHSEED=12345 python3 ci/output_digests.py --seeds 7 \
    > "$dir/digests_12345.txt"
diff "$dir/digests_0.txt" "$dir/digests_12345.txt" \
    || { echo "the output bytes depend on the hash seed"; exit 1; }
echo "slow checks passed"
