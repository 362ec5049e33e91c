#!/usr/bin/env python3
"""End-to-end synthetic benchmark: order-1 vs order-2 condition identification.

Writes the spec of a synthetic six-condition corpus and runs the hmm2tc CLI
on it: `synth`, then `train` and `evaluate` for each order on the 5-train /
4-test token split, then `compare`, which prints the per-condition
improvement-rate table of order 2 over order 1. Everything stays under --out:
spec.json, the corpus, the banks bank1/ and bank2/, the reports report1/ and
report2/, and the table, improvement.json.

Example:
    python3 scripts/run_synthetic_benchmark.py --out /tmp/bench --separation 2.0
"""

import argparse
import json
import os
import sys

from hmm2tc import cli

DEFAULT_LABELS = ["neutral", "shouted", "loud", "angry", "happy", "fear"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True,
                   help="directory for the corpus, the banks and the reports")
    p.add_argument("--labels", nargs="+", default=DEFAULT_LABELS)
    p.add_argument("--tokens", type=int, default=9, help="tokens per condition")
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--mixtures", type=int, default=5)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--separation", type=float, default=4.0,
                   help="inter-condition mean separation (lower = harder)")
    p.add_argument("--frames", type=int, nargs=2, default=(80, 200),
                   metavar=("LO", "HI"))
    p.add_argument("--topology", choices=("ergodic", "left-right"),
                   default="ergodic")
    p.add_argument("--max-iter", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out
    os.makedirs(out, exist_ok=True)
    spec = os.path.join(out, "spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"labels": args.labels, "tokens_per_condition": args.tokens,
                   "frames": list(args.frames), "n_states": args.states,
                   "n_components": args.mixtures, "dim": args.dim,
                   "separation": args.separation, "seed": args.seed}, fh, indent=1)
    manifest = os.path.join(out, "manifest.tsv")
    report = {order: os.path.join(out, f"report{order}", "report.json") for order in (1, 2)}
    commands = [["synth", "--spec", spec, "--out", out]]
    for order in (1, 2):
        bank = os.path.join(out, f"bank{order}")
        commands += [["train", "--manifest", manifest, "--out", bank, "--order", str(order),
                      "--states", str(args.states), "--mixtures", str(args.mixtures),
                      "--topology", args.topology, "--max-iter", str(args.max_iter),
                      "--seed", str(args.seed)],
                     ["evaluate", "--manifest", manifest, "--bank", bank,
                      "--out", os.path.dirname(report[order])]]
    commands.append(["compare", report[1], report[2],
                     "--out", os.path.join(out, "improvement.json")])
    for command in commands:
        print(f"\n$ hmm2tc {' '.join(command)}")
        code = cli.main(command)
        if code:
            return code

    acc = {}
    for order, path in report.items():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        acc[order] = 100.0 * sum(row[i] for i, row in enumerate(doc["counts"])) / doc["n_test"]
    print(f"\noverall accuracy: HMM1 {acc[1]:.1f}%  HMM2 {acc[2]:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
