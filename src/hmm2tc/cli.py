"""Command-line entry point: extract, train, identify, evaluate, compare, synth."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .audio import FrameParams, clip_autocorrelation, decode_pcm16_wav, load_features, \
    lpcc_sequences, save_features
from .config import TrainConfig
from .corpus import ManifestEntry, SynthSpec, apply_split_protocol, format_manifest, \
    generate_synthetic_corpus, parse_manifest
from .errors import DataError, FormatError, Hmm2tcError, NumericError
from .model_io import load_model, load_pack, read_json, save_model, save_pack, sha256
# The model commands import classify, and through it the HMM stack, where they
# run: an extract process never compiles or loads it.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

BANK_FILE = "bank.json"
PACK_DIR = "packed"   # beside models/: one pack of model arrays per scope


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


def _distinct_names(named) -> None:
    """DataError unless the (artifact name, its source) pairs give distinct
    names: manifest IDs joined by '_' can spell one name twice."""
    seen: dict = {}
    for name, source in named:
        if name in seen:
            raise DataError(f"{seen[name]} and {source} map to the same artifact name {name!r}")
        seen[name] = source


# Frames per block of whole files that `extract` passes through the LPC and
# cepstrum stages at once; a file longer than this is a block of its own.
EXTRACT_BLOCK_FRAMES = 1 << 16


def _blocks(items, budget: int):
    """Consecutive runs of (..., rows) items holding at most `budget` rows in
    all, or a single item that holds more."""
    block, rows = [], 0
    for item in items:
        if block and rows + len(item[-1]) > budget:
            yield block
            block, rows = [], 0
        block.append(item)
        rows += len(item[-1])
    if block:
        yield block


def cmd_extract(args) -> int:
    entries = _read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    params = FrameParams(window_ms=args.window_ms, shift_ms=args.shift_ms,
                         lpc_order=args.lpc_order, cepstral_order=args.cepstral_order,
                         pre_emphasis=args.pre_emphasis)
    names = [f"{e.speaker}_{e.sentence}_{e.condition}_{e.token:03d}.lpcc" for e in entries]
    _distinct_names(zip(names, (f"entry {e.key}" for e in entries)))
    os.makedirs(args.out, exist_ok=True)
    failures = []
    new_entries = []
    log = []

    def autocorrelations():
        for e, rel in zip(entries, names):
            src = _entry_path(base, e)
            try:
                with open(src, "rb") as fh:
                    clip = decode_pcm16_wav(fh.read())
                r = clip_autocorrelation(clip, params)
            except (OSError, Hmm2tcError) as exc:
                failures.append(f"{src}: {exc}")
                continue
            yield e, rel, r

    for block in _blocks(autocorrelations(), EXTRACT_BLOCK_FRAMES):
        seqs = lpcc_sequences([r for _, _, r in block], params, [e.path for e, _, _ in block])
        for (e, rel, _), seq in zip(block, seqs):
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
    from .classify import train_bank
    entries = _read_manifest(args.manifest)
    entries, base = _resolve(entries, args.manifest, args)
    cfg = TrainConfig(max_iterations=args.max_iter, tol=args.tol, seed=args.seed)
    scopes: dict = {}   # scope key -> {label, in manifest order -> sequences}
    for e in entries:
        if e.split != "train":
            continue
        key = _scope_key(e, args.pooled)
        scopes.setdefault(key, {}).setdefault(e.condition, []).append(
            load_features(_entry_path(base, e), source_id=e.path))
    if not scopes:
        raise DataError("manifest has no training entries")
    keys = sorted(scopes, key=lambda k: ("",) if k is None else k)
    _distinct_names((_scope_name(k), f"scope {k}") for k in keys)
    _distinct_names((f"{_scope_name(k)}_{lab}", f"scope {k} condition {lab!r}")
                    for k in keys for lab in scopes[k])
    for sub in ("models", PACK_DIR):
        os.makedirs(os.path.join(args.out, sub), exist_ok=True)
    bank_doc = {"format_version": 1, "order": args.order, "N": args.states,
                "M": args.mixtures, "topology": args.topology,
                "protocol": "pooled" if args.pooled else "per_scope", "scopes": []}
    # every scope is trained before any file is written, and an old bank.json
    # goes before the first model file is replaced: a run that fails partway
    # leaves the old bank whole, or no bank.json for identify and evaluate
    trained = [(key, *train_bank(scopes[key], args.order, args.states, args.mixtures,
                                 args.topology, cfg)) for key in keys]
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(args.out, BANK_FILE))
    train_log = {}
    for key, bank, traces in trained:
        scope_doc = {"speaker": None if key is None else key[0],
                     "sentence": None if key is None else key[1],
                     "labels": bank.labels, "models": {}}
        digests = []
        for lab in bank.labels:
            rel = os.path.join("models", f"{_scope_name(key)}_{lab}.model.json")
            digests.append(save_model(bank.models[lab], os.path.join(args.out, rel)))
            scope_doc["models"][lab] = rel
        rel = os.path.join(PACK_DIR, f"{_scope_name(key)}.f8")
        scope_doc["packed"] = {
            "path": rel, "model_sha256": digests,
            "sha256": save_pack([bank.models[lab] for lab in bank.labels],
                                os.path.join(args.out, rel))}
        bank_doc["scopes"].append(scope_doc)
        train_log[_scope_name(key)] = traces
    with open(os.path.join(args.out, "train_log.json"), "w", encoding="utf-8") as fh:
        json.dump(train_log, fh, sort_keys=True, indent=1)
    with open(os.path.join(args.out, BANK_FILE), "w", encoding="utf-8") as fh:
        json.dump(bank_doc, fh, sort_keys=True, indent=1)
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


def _load_bank(bank_dir, doc, scope_doc) -> ConditionBank:
    """The scope's bank. Each model file is read once; the models come from
    the scope's pack when `_packed` vouches for it, and otherwise from the
    model files' JSON, the format of record."""
    from .classify import ConditionBank
    paths = {lab: os.path.join(bank_dir, rel) for lab, rel in scope_doc["models"].items()}
    texts = {}
    for lab, path in paths.items():
        try:
            with open(path, "rb") as fh:
                texts[lab] = fh.read()
        except OSError:   # load_model names the file, after parsing the files before it
            break
    models = _packed(bank_dir, doc, scope_doc, texts)
    if models is None:
        models = {lab: load_model(path, texts.get(lab)) for lab, path in paths.items()}
    return ConditionBank(list(scope_doc["labels"]), models)


def _packed(bank_dir, doc, scope_doc, texts) -> dict | None:
    """The scope's models read from its pack, or None. The pack is read only
    when the scope's "packed" record lists, in label order, the SHA-256 of
    each model file's bytes (`texts`, by label) and names a pack whose own
    SHA-256 it holds and whose size fits bank.json's order, N and M: so a
    pack is never read in place of a model file that changed after train
    wrote both."""
    record, labels = scope_doc.get("packed"), scope_doc["labels"]
    if not (isinstance(record, dict) and isinstance(record.get("path"), str)
            and sorted(labels) == sorted(texts)
            and record.get("model_sha256") == [sha256(texts[lab]) for lab in labels]):
        return None
    models = load_pack(os.path.join(bank_dir, record["path"]), record.get("sha256"),
                       len(labels), doc.get("order"), doc.get("N"), doc.get("M"),
                       doc.get("topology"))
    return None if models is None else dict(zip(labels, models))


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
    from .classify import identify
    doc = _load_bank_doc(args.bank)
    bank = _load_bank(args.bank, doc, _select_scope(doc, args.speaker, args.sentence))
    obs = load_features(args.features)
    result = identify(bank, obs, args.scoring)
    print(result.label)
    for lab in bank.labels:
        print(f"{lab}\t{result.scores[lab]:.6f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .classify import evaluate_scopes, render_report_text
    entries = _read_manifest(args.manifest)
    entries, base = _resolve(entries, args.manifest, args)
    doc = _load_bank_doc(args.bank)
    pooled = doc["protocol"] == "pooled"
    banks = {None if pooled else (scope_doc["speaker"], scope_doc["sentence"]):
             _load_bank(args.bank, doc, scope_doc) for scope_doc in doc["scopes"]}
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
    from .classify import improvement_table, render_improvement_text
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, Hmm2tcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:   # a size field far past what the machine holds
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
