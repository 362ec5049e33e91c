#!/bin/sh
# One entry point for every local check, run from any directory:
#
#   scripts/check.sh
#
# 1. the tier-1 test suite (tests/), which passes when the tests that fail
#    are exactly $EXPECTED_FAILURE: the training-trace clause of criterion 3
#    fails by design (README.md, "Tests"), and anything else failing, or that
#    test passing, is a change to look at; pytest also prints its ten
#    slowest tests (--durations=10), for information only;
# 2. the benchmark's own tests (perfbench/tests);
# 3. a small run of the end-to-end script scripts/run_synthetic_benchmark.py,
#    which runs the CLI's synth, train and evaluate for both orders and then
#    compare, and must exit 0; it runs twice, into two directories, and the
#    two must not differ under diff -r (CLI artifacts are byte-identical from
#    run to run); two more runs train left-right banks (the two runs above
#    are ergodic, the script's default), into two directories under the
#    same diff -r gate; evaluate then runs on the first run's banks and on
#    the first left-right run's, with forward and with Viterbi
#    scoring, each once as written and once with the banks' packed/
#    directories removed, and the two report directories must not differ
#    under diff -r (a pack only speeds up loading; the model files' JSON
#    says what a bank holds); then two more
#    processes, one per order (2, then 1), each train a bank on that corpus
#    and print their own peak RSS (ru_maxrss) and minor page faults
#    (ru_minflt), for information only (not gated); last, hmm2tc extract runs twice over a manifest of a few
#    seeded WAVs (each with a digital silence), into two directories that
#    must not differ under diff -r, and twice more with a 25 ms window at a
#    10 ms shift (a shift that does not divide the window) and pre-emphasis,
#    under the same gate; then a corpus of 18 seeded WAVs (6 conditions of
#    3 tokens, each clip stepping through 3 all-pole filtered segments, so
#    that every chain of an order-2 left-right bank takes the log-domain
#    E-step) goes through extract and then through two order-2 left-right
#    train runs, into two bank directories under the same diff -r gate; one
#    more extract process, over 16 seeded WAVs of
#    3 s each, prints its own peak RSS and minor page faults, and then the
#    minor page faults of a second extract call in the same process (the
#    steady-state count, once the allocator's heap has grown), for
#    information only (not gated);
# 4. a 2-second traced benchmark run of each workload at seed 1, whose result
#    line must read "failed": 0 (a traced run also exercises the span
#    tracer's hooks); numpy's RuntimeWarnings are errors there, as in the
#    tier-1 suite, so a floating-point warning on benchmark-sized input
#    counts as a failed operation;
# 5. an import of every module of src/hmm2tc with scipy and the stdlib wave
#    module blocked: src must not need scipy, which only the tests and
#    perfbench/ use (the "test" extra), and reads WAV files with its own
#    chunk walker, so that the same rules hold on every Python; every module
#    is imported by name, since `import hmm2tc.cli` leaves the model stack
#    (classify and what it imports) to the commands that run it; then the
#    wall time of one `import hmm2tc.cli` in a fresh process that has
#    imported numpy, for information only (it includes compiling the modules
#    when Python writes no bytecode cache, as under PYTHONDONTWRITEBYTECODE=1);
# 6. the line count of each module of src/hmm2tc and their total, then
#    their code lines (lines that are not blank, a comment or a docstring,
#    found with ast), printed for information only (the size of the package
#    and of its modules is tracked from release to release, not gated).
#
# Steps 1 and 3 also print their wall time in seconds, the end-to-end times
# tracked from release to release; neither is gated.
#
# Every step runs even when an earlier one fails; the script exits 1 if any
# step failed and names the failed steps at the end.
set -u
cd "$(dirname "$0")/.." || exit 2

EXPECTED_FAILURE="tests/test_acceptance.py::test_criterion_3_order_reduction_equivalence"
failed=""

now() { python3 -c 'import time; print(time.time())'; }
elapsed() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f s\n", b - a }'; }

echo "== tier-1 tests"
start=$(now)
out=$(PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -q -rfE --durations=10 \
    --continue-on-collection-errors 2>&1)
status=$?
printf '%s\n' "$out"
echo "tier-1 wall time: $(elapsed "$start")"
got=$(printf '%s\n' "$out" | sed -n -E 's/^(FAILED|ERROR) ([^ ]+).*/\2/p' | sort -u)
if [ "$status" -gt 1 ] || [ "$got" != "$EXPECTED_FAILURE" ]; then
    echo "tier-1: failing tests differ from the expected one ($EXPECTED_FAILURE)"
    failed="$failed tier-1"
fi

echo "== benchmark tests"
python3 -m pytest perfbench/tests -q || failed="$failed perfbench-tests"

echo "== end-to-end synthetic benchmark, small"
scratch=$(mktemp -d) || exit 2
for run in 1 2; do
    start=$(now)
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 scripts/run_synthetic_benchmark.py \
        --out "$scratch/run$run" --tokens 9 --states 3 --mixtures 2 --dim 4 --frames 40 60 \
        --max-iter 2 > "$scratch/log$run" 2>&1 || failed="$failed synthetic-benchmark"
    tail -n 3 "$scratch/log$run"
    echo "end-to-end synthetic benchmark wall time: $(elapsed "$start")"
done
diff -r "$scratch/run1" "$scratch/run2" > /dev/null ||
    { echo "the two runs' artifacts differ"; failed="$failed synthetic-determinism"; }
for run in lr lr2; do
    start=$(now)
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 scripts/run_synthetic_benchmark.py \
        --out "$scratch/$run" --tokens 9 --states 3 --mixtures 2 --dim 4 --frames 40 60 \
        --max-iter 2 --topology left-right > "$scratch/log-$run" 2>&1 ||
        failed="$failed synthetic-benchmark-left-right"
    tail -n 3 "$scratch/log-$run"
    echo "end-to-end synthetic benchmark wall time, left-right: $(elapsed "$start")"
done
diff -r "$scratch/lr" "$scratch/lr2" > /dev/null ||
    { echo "the two left-right runs' artifacts differ"
      failed="$failed synthetic-determinism-left-right"; }
for run in run1 lr; do
    for order in 1 2; do
        cp -r "$scratch/$run/bank$order" "$scratch/unpacked-$run$order"
        rm -r "$scratch/unpacked-$run$order/packed"
        for scoring in forward viterbi; do
            for bank in "$run/bank$order" "unpacked-$run$order"; do
                PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m hmm2tc.cli evaluate \
                    --manifest "$scratch/$run/manifest.tsv" --bank "$scratch/$bank" \
                    --scoring "$scoring" \
                    --out "$scratch/report-$scoring-$(echo "$bank" | tr / -)" > /dev/null ||
                    failed="$failed evaluate"
            done
            diff -r "$scratch/report-$scoring-$run-bank$order" \
                "$scratch/report-$scoring-unpacked-$run$order" > /dev/null ||
                { echo "$run order-$order $scoring reports differ without packed/"
                  failed="$failed pack-equivalence"; }
        done
    done
done
for order in 2 1; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import contextlib, io, resource, sys
from hmm2tc import cli
order = sys.argv[3]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["train", "--manifest", sys.argv[1], "--out", sys.argv[2], "--order", order,
                     "--states", "3", "--mixtures", "2", "--max-iter", "2"])
use = resource.getrusage(resource.RUSAGE_SELF)
print(f"one order-{order} train process (exit {code}): peak RSS {use.ru_maxrss / 1024:.1f} MB, "
      f"{use.ru_minflt} minor page faults")
' "$scratch/run1/manifest.tsv" "$scratch/memory-bank$order" "$order"
done
echo "== hmm2tc extract twice over seeded WAVs"
python3 -c '
import sys, wave
import numpy as np
def write(manifest, lengths, first):
    rows = ["speaker\tsentence\tcondition\ttoken\tpath"]
    for i, n in enumerate(lengths, first):
        rng = np.random.default_rng([7, i])
        samples = (rng.normal(0, 0.1, n) * 32767).clip(-32768, 32767).astype("<i2")
        samples[n // 4 : n // 2] = 0
        with wave.open(f"{sys.argv[1]}/u{i}.wav", "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(samples.tobytes())
        rows.append(f"s1\tt1\tneutral\t{i + 1}\tu{i}.wav")
    with open(f"{sys.argv[1]}/{manifest}", "w") as fh:
        fh.write("\n".join(rows) + "\n")
write("wavs.tsv", [4800, 7000, 3000, 9000, 5200], 0)
write("long.tsv", [48000] * 16, 5)   # 16 clips of 3 s, 9,520 frames
' "$scratch" || failed="$failed extract-inputs"
for run in 1 2; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m hmm2tc.cli extract \
        --manifest "$scratch/wavs.tsv" --out "$scratch/features$run" ||
        failed="$failed extract"
done
diff -r "$scratch/features1" "$scratch/features2" > /dev/null ||
    { echo "the two extract runs' feature directories differ"; failed="$failed extract-determinism"; }
for run in 1 2; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m hmm2tc.cli extract \
        --manifest "$scratch/wavs.tsv" --out "$scratch/features-25-10-$run" \
        --window-ms 25 --shift-ms 10 --pre-emphasis 0.97 ||
        failed="$failed extract-25-10"
done
diff -r "$scratch/features-25-10-1" "$scratch/features-25-10-2" > /dev/null ||
    { echo "the two 25 ms / 10 ms extract runs' feature directories differ"
      failed="$failed extract-25-10-determinism"; }
echo "== order-2 left-right train twice on seeded AR WAVs (log-domain E-step)"
mkdir "$scratch/ar" && python3 -c '
import sys, wave
import numpy as np
from scipy.signal import lfilter
rows = ["speaker\tsentence\tcondition\ttoken\tpath"]
for c, label in enumerate(["neutral", "shouted", "loud", "angry", "happy", "fear"]):
    for token in range(1, 4):
        noise = np.random.default_rng([29, c, token])
        parts = []
        for segment in range(3):   # one all-pole filter per condition and segment
            rng = np.random.default_rng([29, c, 10 + segment])
            radius = rng.uniform(0.85, 0.97, 4)
            angle = rng.uniform(0.05, 0.95, 4) * np.pi
            a = np.poly(np.concatenate([radius * np.exp(1j * angle),
                                        radius * np.exp(-1j * angle)])).real
            x = lfilter([1.0], a, noise.standard_normal(4200))[1000:]   # past the transient
            parts.append(x / np.max(np.abs(x)))
        samples = np.round(np.concatenate(parts) * (0.5 * 32767)).astype("<i2")
        with wave.open(f"{sys.argv[1]}/{label}_{token}.wav", "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(samples.tobytes())
        rows.append(f"s1\tt1\t{label}\t{token}\t{label}_{token}.wav")
with open(f"{sys.argv[1]}/ar.tsv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
' "$scratch/ar" || failed="$failed ar-inputs"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m hmm2tc.cli extract \
    --manifest "$scratch/ar/ar.tsv" --out "$scratch/ar-features" > /dev/null ||
    failed="$failed ar-extract"
for run in 1 2; do
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m hmm2tc.cli train \
        --manifest "$scratch/ar-features/manifest.tsv" --out "$scratch/ar-bank$run" \
        --order 2 --topology left-right --states 3 --mixtures 2 --max-iter 3 \
        --train-count 3 --test-count 0 > /dev/null 2>&1 || failed="$failed ar-train"
done
diff -r "$scratch/ar-bank1" "$scratch/ar-bank2" > /dev/null ||
    { echo "the two left-right banks trained on the AR corpus differ"
      failed="$failed ar-train-determinism"; }
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import contextlib, io, resource, sys
from hmm2tc import cli
argv = ["extract", "--manifest", sys.argv[1], "--out", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
    use = resource.getrusage(resource.RUSAGE_SELF)
    code2 = cli.main(argv)
again = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - use.ru_minflt
print(f"one extract process (exit {code}): peak RSS {use.ru_maxrss / 1024:.1f} MB, "
      f"{use.ru_minflt} minor page faults; a second extract call in it (exit {code2}): "
      f"{again} minor page faults")
' "$scratch/long.tsv" "$scratch/memory-features"
rm -rf "$scratch"

for w in extract train identify; do
    echo "== traced benchmark run: $w"
    result=$(python3 -W error::RuntimeWarning perfbench/run.py --workload "$w" --seed 1 \
        --seconds 2 --trace 1 | tail -n 1)
    echo "$result" | cut -c 1-160
    case "$result" in
        *'"failed": 0,'*) ;;
        *) failed="$failed run-$w" ;;
    esac
done

echo "== src imports without scipy and without wave"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import glob, importlib, os, sys
sys.modules["scipy"] = sys.modules["wave"] = None
for path in sorted(glob.glob("src/hmm2tc/*.py")):
    name = os.path.basename(path)[:-3]
    importlib.import_module("hmm2tc" if name == "__init__" else f"hmm2tc.{name}")
' || failed="$failed no-scipy-no-wave"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import time
import numpy   # imported first, as the benchmark does before it times import_s
start = time.perf_counter()
import hmm2tc.cli
print(f"one import of hmm2tc.cli in a fresh process, after numpy: "
      f"{time.perf_counter() - start:.3f} s")
'

echo "== lines in src/hmm2tc/*.py (information only)"
wc -l src/hmm2tc/*.py
echo "== code lines in src/hmm2tc/*.py, no blank, comment or docstring (information only)"
python3 -c '
import ast, glob
total = 0
for path in sorted(glob.glob("src/hmm2tc/*.py")):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    count = sum(1 for number, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.lstrip().startswith("#") and number not in docs)
    total += count
    print(f"{count:6d} {path}")
print(f"{total:6d} total")
'

if [ -n "$failed" ]; then
    echo "FAILED:$failed"
    exit 1
fi
echo "all checks passed"
