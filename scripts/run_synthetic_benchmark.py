#!/usr/bin/env python3
"""End-to-end synthetic benchmark: order-1 vs order-2 condition identification.

Generates a synthetic six-condition corpus, applies the 5-train / 4-test token
split, trains one bank of models per order, and prints both confusion-matrix
reports plus the per-condition improvement-rate table of order 2 over order 1.

Example:
    python3 scripts/run_synthetic_benchmark.py --out /tmp/bench --separation 2.0
"""

import argparse
import os
import sys
import time

import numpy as np

from hmm2tc.audio import load_features
from hmm2tc.classify import (evaluate, improvement_table, render_improvement_text,
                             render_report_text, train_bank)
from hmm2tc.config import TrainConfig
from hmm2tc.corpus import SynthSpec, apply_split_protocol, generate_synthetic_corpus

DEFAULT_LABELS = ["neutral", "shouted", "loud", "angry", "happy", "fear"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="directory for the generated corpus")
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
    spec = SynthSpec(labels=args.labels, tokens_per_condition=args.tokens,
                     frames=tuple(args.frames), n_states=args.states,
                     n_components=args.mixtures, dim=args.dim,
                     separation=args.separation, seed=args.seed)
    t0 = time.monotonic()
    entries, _ = generate_synthetic_corpus(spec, args.out)
    entries = apply_split_protocol(entries, 5, 4)
    train = {lab: [] for lab in args.labels}
    test = {lab: [] for lab in args.labels}
    for e in entries:
        seq = load_features(os.path.join(args.out, e.path))
        if e.split == "train":
            train[e.condition].append(seq)
        elif e.split == "test":
            test[e.condition].append(seq)
    print(f"corpus: {len(entries)} tokens, {len(args.labels)} conditions "
          f"({time.monotonic() - t0:.1f}s)")

    cfg = TrainConfig(max_iterations=args.max_iter, seed=args.seed)
    reports = {}
    for order in (1, 2):
        t0 = time.monotonic()
        bank, _ = train_bank(train, order, args.states, args.mixtures,
                             args.topology, cfg)
        report = evaluate(bank, test)
        reports[order] = report
        print(f"\norder-{order} bank trained and evaluated in "
              f"{time.monotonic() - t0:.1f}s")
        print(render_report_text(report, title=f"HMM{order} benchmark"), end="")

    print()
    table = improvement_table(reports[1].to_dict(), reports[2].to_dict())
    print(render_improvement_text(table), end="")
    acc = {o: 100.0 * np.trace(r.counts) / r.counts.sum()
           for o, r in reports.items()}
    print(f"\noverall accuracy: HMM1 {acc[1]:.1f}%  HMM2 {acc[2]:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
