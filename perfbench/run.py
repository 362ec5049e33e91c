#!/usr/bin/env python3
"""hmm2tc benchmark: one workload per run, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload {extract,train,identify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory. The workload is set up SETUP_REPEATS times (`setup_s` is the
program's import time plus the median set-up time), then whole rounds of its
operations run until the timed calls have taken S seconds of wall time.

With --trace 0, calls are timed in reference-speed seconds (see speed.py) and
the result holds the end-to-end metrics. With --trace 1, calls are timed in
wall seconds, every second set-up and round is traced, and the result holds
the per-layer metrics and the tracing overhead; the spans are written to
perfbench/out/. The last line of standard output is the result; the lines
before it give the environment and the workload's own figures (see
perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "frames_per_s": "frames/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("extract", "train", "identify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_threads() -> int:
    """Keep BLAS pools at or below the core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cores) if current.isdigit() else cores)
    return cores


def environment(cores: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": cores, "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{var: os.environ[var] for var in THREAD_VARS}}


@contextlib.contextmanager
def segment(tracer, handler, traced: bool, kind: str):
    if not traced:
        yield
        return
    tracer.begin(kind)
    handler.tracer = tracer
    try:
        yield
    finally:
        handler.tracer = None
        tracer.uninstall()


def end_to_end(samples, setup_s: float) -> dict[str, float]:
    return {"setup_s": setup_s,
            "frames_per_s": sum(s.frames for s in samples) / sum(s.seconds for s in samples)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hmm2tc" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hmm2tc'}", file=sys.stderr)
        return 2
    cores = cap_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import spans  # noqa: E402 - after the thread cap
    import speed
    import workloads

    start = time.perf_counter()
    import hmm2tc.cli
    import_s = time.perf_counter() - start
    if Path(hmm2tc.__file__).resolve().parent != ROOT / "src" / "hmm2tc":
        print(f"error: hmm2tc imported from {hmm2tc.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    handler = spans.quiet_program_logs()
    tracer = spans.Tracer() if args.trace else None
    # Traced runs time in wall seconds: the speed samples would land inside spans.
    clock = speed.Wall() if tracer else speed.Calibrated()
    workload = workloads.WORKLOADS[args.workload](work, args.seed, clock)
    tally = workloads.Tally()
    try:
        setups, setup_walls = [], []
        for k in range(SETUP_REPEATS):
            workload.reset()
            with segment(tracer, handler, tracer is not None and k % 2 == 1, "setup"):
                _, seconds, wall = clock.time(workload.setup)
            setups.append(seconds)
            setup_walls.append(wall)
        workload.prepare_checks()
        rounds = []  # (traced, samples)
        measured = 0.0
        while measured < args.seconds or (tracer is not None and len(rounds) < 2):
            traced = tracer is not None and len(rounds) % 2 == 1
            with segment(tracer, handler, traced, "round"):
                rounds.append((traced, workload.round(tally)))
            measured += sum(s.wall_s for s in rounds[-1][1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [s for traced, r in rounds if not traced for s in r]
    untraced_setups = setups[0::2] if tracer is not None else setups
    e2e = end_to_end(plain, import_s + statistics.median(untraced_setups))
    detail = {"workload": args.workload, "seed": args.seed,
              "round_s": [sum(s.seconds for s in r) for _, r in rounds],
              "round_wall_s": [sum(s.wall_s for s in r) for _, r in rounds],
              "setup_runs_s": setups, "setup_runs_wall_s": setup_walls,
              "import_s": import_s,
              "wall_frames_per_s": sum(s.frames for s in plain) / sum(s.wall_s for s in plain),
              **workload.detail(plain)}
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        traced = [s for t, r in rounds if t for s in r]
        traced_e2e = end_to_end(traced, import_s + setups[1])
        per_round = [sum(s.seconds for s in r) for _, r in rounds]
        overhead = {
            "trace.overhead_pct": 100.0 * (statistics.mean(per_round[1::2])
                                           / statistics.mean(per_round[0::2]) - 1.0),
            **{f"trace.{k}_delta": traced_e2e[k] - e2e[k] for k in e2e}}
        units = {**spans.PER_LAYER, "trace.overhead_pct": "%",
                 **{f"trace.{k}_delta": u for k, u in END_TO_END_UNITS.items()}}
        values = {**spans.layer_metrics(tracer), **overhead}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        detail["traced"] = {**traced_e2e, **workload.detail(traced)}
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    detail["end_to_end"] = e2e

    print(json.dumps({"env": environment(cores)}))
    print(json.dumps({"detail": detail}))
    if tally.notes:
        print(json.dumps({"problems": tally.notes}))
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
