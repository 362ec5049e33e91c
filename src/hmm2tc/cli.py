"""Command-line entry point: extract, train, identify, evaluate, compare, synth."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .audio import FrameParams, decode_pcm16_wav, extract_features, load_features, \
    save_features
from .classify import ConditionBank, evaluate_scopes, identify, improvement_table, \
    render_improvement_text, render_report_text, train_bank
from .config import TrainConfig
from .corpus import ManifestEntry, SynthSpec, apply_split_protocol, format_manifest, \
    generate_synthetic_corpus, parse_manifest
from .errors import DataError, FormatError, Hmm2tcError, NumericError
from .model_io import load_model, read_json, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

BANK_FILE = "bank.json"


def _frame_params(args) -> FrameParams:
    return FrameParams(window_ms=args.window_ms, shift_ms=args.shift_ms,
                       lpc_order=args.lpc_order, cepstral_order=args.cepstral_order,
                       pre_emphasis=args.pre_emphasis)


def _train_config(args) -> TrainConfig:
    return TrainConfig(max_iterations=args.max_iter, tol=args.tol, seed=args.seed,
                       freeze_initials=getattr(args, "freeze_initials", False))


def _read_manifest(path) -> list[ManifestEntry]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except ValueError as exc:   # not UTF-8 text
            raise FormatError(f"{path}: not a text manifest: {exc}") from exc
    return parse_manifest(text)


def _resolve(entries, manifest_path, args):
    if any(e.split == "auto" for e in entries):
        entries = apply_split_protocol(entries, args.train_count, args.test_count,
                                       seed=args.shuffle_seed)
    base = os.path.dirname(os.path.abspath(manifest_path))
    return entries, base


def _entry_path(base, entry):
    return entry.path if os.path.isabs(entry.path) else os.path.join(base, entry.path)


def cmd_extract(args) -> int:
    entries = _read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    params = _frame_params(args)
    os.makedirs(args.out, exist_ok=True)
    failures = []
    new_entries = []
    log = []
    for e in entries:
        src = _entry_path(base, e)
        rel = f"{e.speaker}_{e.sentence}_{e.condition}_{e.token:03d}.lpcc"
        try:
            with open(src, "rb") as fh:
                clip = decode_pcm16_wav(fh.read())
            seq = extract_features(clip, params, source_id=e.path)
        except (OSError, Hmm2tcError) as exc:
            failures.append(f"{src}: {exc}")
            continue
        save_features(seq, os.path.join(args.out, rel))
        log.append({"source": e.path, "features": rel, "frames": seq.T,
                    "degenerate_frames": seq.degenerate_frames})
        new_entries.append(ManifestEntry(e.speaker, e.sentence, e.condition,
                                         e.token, rel, e.group, e.split))
    with open(os.path.join(args.out, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.write(format_manifest(new_entries))
    with open(os.path.join(args.out, "extract_log.json"), "w", encoding="utf-8") as fh:
        json.dump({"files": log}, fh, sort_keys=True, indent=1)
    print(f"extracted {len(new_entries)}/{len(entries)} files, "
          f"{sum(r['frames'] for r in log)} frames "
          f"({sum(r['degenerate_frames'] for r in log)} degenerate)")
    for msg in failures:
        print(f"error: {msg}", file=sys.stderr)
    return EXIT_DATA if failures else EXIT_OK


def _scope_key(entry, pooled: bool):
    return None if pooled else (entry.speaker, entry.sentence)


def _scope_name(key) -> str:
    return "pooled" if key is None else f"{key[0]}_{key[1]}"


def cmd_train(args) -> int:
    entries = _read_manifest(args.manifest)
    entries, base = _resolve(entries, args.manifest, args)
    cfg = _train_config(args)
    scopes: dict = {}   # scope key -> {label, in manifest order -> sequences}
    for e in entries:
        if e.split != "train":
            continue
        key = _scope_key(e, args.pooled)
        scopes.setdefault(key, {}).setdefault(e.condition, []).append(
            load_features(_entry_path(base, e), source_id=e.path))
    if not scopes:
        raise DataError("manifest has no training entries")
    os.makedirs(os.path.join(args.out, "models"), exist_ok=True)
    bank_doc = {"format_version": 1, "order": args.order, "N": args.states,
                "M": args.mixtures, "topology": args.topology,
                "protocol": "pooled" if args.pooled else "per_scope",
                "freeze_initials": cfg.freeze_initials, "scopes": []}
    train_log = {}
    for key in sorted(scopes, key=lambda k: ("",) if k is None else k):
        bank, traces = train_bank(scopes[key], args.order, args.states, args.mixtures,
                                  args.topology, cfg)
        scope_doc = {"speaker": None if key is None else key[0],
                     "sentence": None if key is None else key[1],
                     "labels": bank.labels, "models": {}}
        for lab in bank.labels:
            rel = os.path.join("models", f"{_scope_name(key)}_{lab}.model.json")
            save_model(bank.models[lab], os.path.join(args.out, rel),
                       metadata={"freeze_initials": cfg.freeze_initials})
            scope_doc["models"][lab] = rel
        bank_doc["scopes"].append(scope_doc)
        train_log[_scope_name(key)] = traces
    with open(os.path.join(args.out, BANK_FILE), "w", encoding="utf-8") as fh:
        json.dump(bank_doc, fh, sort_keys=True, indent=1)
    with open(os.path.join(args.out, "train_log.json"), "w", encoding="utf-8") as fh:
        json.dump(train_log, fh, sort_keys=True, indent=1)
    print(f"trained {len(bank_doc['scopes'])} bank(s) -> {args.out}")
    return EXIT_OK


def _load_bank_doc(bank_dir) -> dict:
    """The bank directory's bank.json; FormatError unless it holds the fields
    that identify and evaluate read."""
    path = os.path.join(bank_dir, BANK_FILE)
    doc = read_json(path)
    scopes = doc.get("scopes") if isinstance(doc, dict) else None
    if not (isinstance(scopes, list) and scopes and {"order", "protocol"} <= doc.keys()
            and all(_is_scope_doc(s) for s in scopes)):
        raise FormatError(f"{path}: not a bank document")
    return doc


def _is_scope_doc(scope) -> bool:
    return (isinstance(scope, dict)
            and {"labels", "models", "speaker", "sentence"} <= scope.keys()
            and isinstance(scope["labels"], list) and isinstance(scope["models"], dict)
            and all(isinstance(v, str) for v in scope["labels"])
            and all(isinstance(v, str) for v in scope["models"].values()))


def _load_bank(bank_dir, scope_doc) -> ConditionBank:
    models = {lab: load_model(os.path.join(bank_dir, rel))
              for lab, rel in scope_doc["models"].items()}
    return ConditionBank(list(scope_doc["labels"]), models,
                         scope={"speaker": scope_doc["speaker"],
                                "sentence": scope_doc["sentence"]})


def _select_scope(doc, speaker, sentence) -> dict:
    """The bank's scope for --speaker and --sentence: a pooled bank's one
    scope answers for any pair; otherwise each flag given must equal the
    scope's value, and the flags must leave one scope."""
    if doc["protocol"] == "pooled":
        return doc["scopes"][0]
    scopes = [s for s in doc["scopes"] if speaker in (None, s["speaker"])
              and sentence in (None, s["sentence"])]
    if not scopes:
        raise DataError(f"bank has no scope for speaker {speaker!r}, sentence {sentence!r}")
    if len(scopes) > 1:
        raise DataError("bank has multiple scopes; pass --speaker and --sentence")
    return scopes[0]


def cmd_identify(args) -> int:
    doc = _load_bank_doc(args.bank)
    bank = _load_bank(args.bank, _select_scope(doc, args.speaker, args.sentence))
    obs = load_features(args.features)
    result = identify(bank, obs, args.scoring)
    print(result.label)
    for lab in bank.labels:
        print(f"{lab}\t{result.scores[lab]:.6f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    entries = _read_manifest(args.manifest)
    entries, base = _resolve(entries, args.manifest, args)
    doc = _load_bank_doc(args.bank)
    pooled = doc["protocol"] == "pooled"
    banks = {None if pooled else (scope_doc["speaker"], scope_doc["sentence"]):
             _load_bank(args.bank, scope_doc) for scope_doc in doc["scopes"]}
    tests = ((_scope_key(e, pooled), e.condition,
              load_features(_entry_path(base, e), source_id=e.path), e.group or None)
             for e in entries if e.split == "test")
    report = evaluate_scopes(banks, tests, args.scoring,
                             protocol={"bank": doc["protocol"], "scoring": args.scoring,
                                       "order": doc["order"]})
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
    text = render_report_text(report, title=f"HMM{doc['order']} evaluation")
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "scores.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in report.utterances)
    print(text, end="")
    return EXIT_OK


def _read_report(path) -> dict:
    """An evaluation report's document; FormatError naming the file unless
    it holds a list of labels and one finite rate per label."""
    doc = read_json(path)
    labels, rates = (doc.get(k) if isinstance(doc, dict) else None for k in ("labels", "rates"))
    if not (isinstance(labels, list) and isinstance(rates, list) and len(labels) == len(rates)
            and all(isinstance(v, str) for v in labels)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                    for v in rates)):
        raise FormatError(f"{path}: not a report document (labels and one rate per label)")
    return doc


def cmd_compare(args) -> int:
    table = improvement_table(_read_report(args.baseline), _read_report(args.new))
    if args.format == "json":
        print(json.dumps(table, sort_keys=False))
    else:
        print(render_improvement_text(table), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=False, indent=1)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec.from_dict(read_json(args.spec))
    entries, _ = generate_synthetic_corpus(spec, args.out)
    print(f"wrote {len(entries)} feature files -> {args.out}")
    return EXIT_OK


def _add_split_args(p):
    p.add_argument("--train-count", type=int, default=5)
    p.add_argument("--test-count", type=int, default=4)
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="shuffle tokens before splitting (default: by token index)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmm2tc",
        description="Second-order HMM talking-condition identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="WAV manifest -> LPCC feature files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-ms", type=float, default=30.0)
    p.add_argument("--shift-ms", type=float, default=5.0)
    p.add_argument("--lpc-order", type=int, default=12)
    p.add_argument("--cepstral-order", type=int, default=16)
    p.add_argument("--pre-emphasis", type=float, default=0.0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one model per condition")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--mixtures", type=int, default=5)
    p.add_argument("--topology", choices=("ergodic", "left-right"),
                   default="left-right")
    p.add_argument("--max-iter", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pooled", action="store_true",
                   help="one bank across speakers/sentences instead of per scope")
    p.add_argument("--freeze-initials", action="store_true")
    _add_split_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("identify", help="identify one feature file against a bank")
    p.add_argument("--bank", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--scoring", choices=("forward", "viterbi"), default="forward")
    p.add_argument("--speaker", default=None)
    p.add_argument("--sentence", default=None)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="run the test split and tabulate confusion")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scoring", choices=("forward", "viterbi"), default="forward")
    _add_split_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="improvement-rate table of two reports")
    p.add_argument("baseline")
    p.add_argument("new")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic feature corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, Hmm2tcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
