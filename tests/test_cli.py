import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hmm2tc import classify, cli
from hmm2tc.audio import FrameParams, decode_pcm16_wav, extract_features, load_features, \
    lpcc_sequences, save_features
from hmm2tc.cli import main
from hmm2tc.corpus import ManifestEntry, format_manifest, parse_manifest
from hmm2tc.errors import Hmm2tcError
from hmm2tc.gmm import MEAN_SPREAD, GaussianMixture
from hmm2tc.init import flat_start
from hmm2tc.model_io import load_model, load_pack, save_model, save_pack

from conftest import make_wav_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_synth_spec(path, **overrides):
    spec = {"labels": ["a", "b"], "tokens_per_condition": 9, "frames": [40, 60],
            "n_states": 2, "n_components": 1, "dim": 3, "separation": 5.0,
            "seed": 11}
    spec.update(overrides)
    path.write_text(json.dumps(spec))


@pytest.fixture
def synth_corpus(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_synth_spec(spec)
    out = tmp_path / "corpus"
    code, _, _ = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
    assert code == 0
    return out


class TestSynth:
    def test_file_count(self, synth_corpus):
        files = os.listdir(synth_corpus / "features")
        assert len(files) == 18

    def test_deterministic(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_synth_spec(spec, tokens_per_condition=2)
        run(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "c1"))
        run(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "c2"))
        assert (tmp_path / "c1" / "features" / "a_001.lpcc").read_bytes() == \
            (tmp_path / "c2" / "features" / "a_001.lpcc").read_bytes()


class TestTrainEvaluate:
    def _train(self, capsys, corpus, out, order):
        return run(capsys, "train", "--manifest", str(corpus / "manifest.tsv"),
                   "--out", str(out), "--order", str(order), "--states", "2",
                   "--mixtures", "1", "--topology", "ergodic", "--max-iter", "8")

    def test_end_to_end(self, synth_corpus, tmp_path, capsys):
        bank2 = tmp_path / "bank2"
        code, _, _ = self._train(capsys, synth_corpus, bank2, 2)
        assert code == 0
        doc = json.loads((bank2 / "bank.json").read_text())
        assert doc["order"] == 2
        log = json.loads((bank2 / "train_log.json").read_text())
        for traces in log.values():
            for trace in traces.values():
                assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
        rep2 = tmp_path / "rep2"
        code, out_text, _ = run(capsys, "evaluate",
                                "--manifest", str(synth_corpus / "manifest.tsv"),
                                "--bank", str(bank2), "--out", str(rep2))
        assert code == 0
        report = json.loads((rep2 / "report.json").read_text())
        assert report["n_test"] == 8
        assert all(r >= 95.0 for r in report["rates"])
        # json and text agree on percentages
        txt = (rep2 / "report.txt").read_text()
        for rate in report["rates"]:
            assert f"{rate:.1f}%" in txt

    def test_scores_jsonl(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 2)[0] == 0
        for name in ("r1", "r2"):
            assert run(capsys, "evaluate", "--manifest", str(synth_corpus / "manifest.tsv"),
                       "--bank", str(bank), "--out", str(tmp_path / name))[0] == 0
        text = (tmp_path / "r1" / "scores.jsonl").read_text()
        assert text == (tmp_path / "r2" / "scores.jsonl").read_text()
        records = [json.loads(line) for line in text.splitlines()]
        report = json.loads((tmp_path / "r1" / "report.json").read_text())
        assert len(records) == report["n_test"] == 8
        counts = np.zeros((2, 2), dtype=int)
        for rec in records:
            assert set(rec) == {"source", "T", "true", "predicted", "scores", "margin"}
            ranked = sorted(rec["scores"].values(), reverse=True)
            assert rec["predicted"] == max(rec["scores"], key=rec["scores"].get)
            assert rec["margin"] == ranked[0] - ranked[1] >= 0
            frames = (synth_corpus / rec["source"]).read_bytes()
            assert rec["T"] == int(np.frombuffer(frames[5:9], dtype="<u4")[0])
            counts[report["labels"].index(rec["predicted"]),
                   report["labels"].index(rec["true"])] += 1
        assert counts.tolist() == report["counts"]

    def test_order1_vs_order2_and_compare(self, synth_corpus, tmp_path, capsys):
        reports = {}
        for order in (1, 2):
            bank = tmp_path / f"bank{order}"
            assert self._train(capsys, synth_corpus, bank, order)[0] == 0
            doc = json.loads((bank / "bank.json").read_text())
            model_doc = json.loads(
                (bank / doc["scopes"][0]["models"]["a"]).read_text())
            if order == 2:
                assert "a3" in model_doc
            else:
                assert "a3" not in model_doc
            rep = tmp_path / f"rep{order}"
            assert run(capsys, "evaluate",
                       "--manifest", str(synth_corpus / "manifest.tsv"),
                       "--bank", str(bank), "--out", str(rep))[0] == 0
            reports[order] = rep / "report.json"
        code, out_text, _ = run(capsys, "compare", str(reports[1]),
                                str(reports[2]), "--format", "json")
        assert code == 0
        table = json.loads(out_text)
        assert set(table) == {"a", "b"}

    @pytest.mark.parametrize("flag", ["--train-count", "--test-count", "--shuffle-seed"])
    def test_negative_split_count_exits_3(self, synth_corpus, tmp_path, capsys, flag):
        refusal = ("shuffle seed" if flag == "--shuffle-seed" else "split counts") + \
            " must be >= 0"
        manifest = str(synth_corpus / "manifest.tsv")
        code, _, err = run(capsys, "train", "--manifest", manifest, "--out",
                           str(tmp_path / "refused"), "--states", "2", "--mixtures", "1",
                           "--max-iter", "2", flag, "-1")
        assert code == 3 and refusal in err
        assert not (tmp_path / "refused").exists()
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 1)[0] == 0
        code, _, err = run(capsys, "evaluate", "--manifest", manifest, "--bank", str(bank),
                           "--out", str(tmp_path / "rep"), flag, "-1")
        assert code == 3 and refusal in err
        assert not (tmp_path / "rep").exists()

    def test_evaluate_with_no_test_utterances_exits_3(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 1)[0] == 0
        code, _, err = run(capsys, "evaluate", "--manifest", str(synth_corpus / "manifest.tsv"),
                           "--bank", str(bank), "--out", str(tmp_path / "rep"),
                           "--test-count", "0")
        assert code == 3 and "no test utterances" in err
        assert not (tmp_path / "rep").exists()

    def test_identify(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 2)[0] == 0
        feat = synth_corpus / "features" / "a_006.lpcc"
        code, out_text, _ = run(capsys, "identify", "--bank", str(bank),
                                "--features", str(feat))
        assert code == 0
        assert out_text.splitlines()[0] == "a"
        # a bank written while train had --freeze-initials holds the flag in
        # bank.json and in each model file; it loads and identifies alike
        doc = json.loads((bank / "bank.json").read_text())
        (bank / "bank.json").write_text(json.dumps({**doc, "freeze_initials": False}))
        for rel in doc["scopes"][0]["models"].values():
            model_doc = json.loads((bank / rel).read_text())
            model_doc["metadata"] = {"freeze_initials": False}
            (bank / rel).write_text(json.dumps(model_doc))
        assert run(capsys, "identify", "--bank", str(bank), "--features", str(feat)) == \
            (0, out_text, "")

    def test_identify_malformed_model_exits_3(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 2)[0] == 0
        doc = json.loads((bank / "bank.json").read_text())
        model_path = bank / doc["scopes"][0]["models"]["a"]
        model_doc = json.loads(model_path.read_text())
        model_doc["mixtures"][0]["means"] = [[0.0, 1.0], [0.0]]  # ragged
        model_path.write_text(json.dumps(model_doc))
        code, _, err = run(capsys, "identify", "--bank", str(bank), "--features",
                           str(synth_corpus / "features" / "a_006.lpcc"))
        assert code == 3
        assert "malformed model document" in err

    def test_identify_states_with_different_component_counts_exits_3(self, synth_corpus,
                                                                      tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 1)[0] == 0
        doc = json.loads((bank / "bank.json").read_text())
        model_path = bank / doc["scopes"][0]["models"]["b"]
        model_doc = json.loads(model_path.read_text())
        state = model_doc["mixtures"][0]   # one component -> two equal halves
        state.update(weights=[0.5, 0.5], means=state["means"] * 2,
                     variances=state["variances"] * 2)
        model_path.write_text(json.dumps(model_doc))
        code, out, err = run(capsys, "identify", "--bank", str(bank), "--features",
                             str(synth_corpus / "features" / "a_006.lpcc"))
        assert code == 3, err
        assert out == "" and "Traceback" not in err

    def test_train_deterministic(self, synth_corpus, tmp_path, capsys):
        for name in ("t1", "t2"):
            assert self._train(capsys, synth_corpus, tmp_path / name, 2)[0] == 0
        doc = json.loads((tmp_path / "t1" / "bank.json").read_text())
        rel = doc["scopes"][0]["models"]["a"]
        assert (tmp_path / "t1" / rel).read_bytes() == \
            (tmp_path / "t2" / rel).read_bytes()


class TestTrainArtifactNames:
    """Scopes whose IDs, joined by '_', spell one artifact name twice."""

    @pytest.mark.parametrize("scope_of, first, second", [
        # (a_b, c) and (a, b_c) both name the scope a_b_c
        ({"x": [("a_b", "c"), ("a", "b_c")], "c_x": [("a_b", "c"), ("a", "b_c")]},
         "('a', 'b_c')", "('a_b', 'c')"),
        # scope (a, b) condition c_x and scope (a, b_c) condition x both name a_b_c_x
        ({"x": [("a", "b_c")], "c_x": [("a", "b")]},
         "('a', 'b') condition 'c_x'", "('a', 'b_c') condition 'x'"),
    ], ids=["scopes", "models"])
    def test_colliding_names_exit_3(self, tmp_path, capsys, scope_of, first, second):
        write_synth_spec(tmp_path / "spec.json", labels=["x", "c_x"])
        corpus = tmp_path / "corpus"
        assert run(capsys, "synth", "--spec", str(tmp_path / "spec.json"),
                   "--out", str(corpus))[0] == 0
        lines = (corpus / "manifest.tsv").read_text().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            cells = line.split("\t")      # speaker group sentence condition ...
            for speaker, sentence in scope_of[cells[3]]:
                rows.append("\t".join([speaker, cells[1], sentence] + cells[3:]))
        (corpus / "manifest.tsv").write_text("\n".join(rows) + "\n")
        bank = tmp_path / "bank"
        code, _, err = run(capsys, "train", "--manifest", str(corpus / "manifest.tsv"),
                           "--out", str(bank), "--states", "2", "--mixtures", "1",
                           "--max-iter", "2")
        assert code == 3
        assert f"scope {first} and scope {second}" in err
        assert not bank.exists()


class TestEvaluateScopes:
    """Speaker A has neutral and angry models, speaker B neutral and happy."""

    @pytest.fixture
    def corpus(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_synth_spec(spec, labels=["neutral", "angry", "happy"],
                         tokens_per_condition=6, frames=[30, 40], n_states=1)
        out = tmp_path / "corpus"
        assert run(capsys, "synth", "--spec", str(spec), "--out", str(out))[0] == 0
        return out

    def _evaluate(self, capsys, corpus, tests):
        """Train both speakers' banks and evaluate A's held-out tokens plus
        tests, (speaker, condition, token, features file) rows."""
        rows = [("A", cond, tok, "train" if tok <= 3 else "test", f"{cond}_00{tok}")
                for cond in ("neutral", "angry") for tok in range(1, 7)]
        rows += [("B", cond, tok, "train", f"{cond}_00{tok}")
                 for cond in ("neutral", "happy") for tok in range(1, 4)]
        rows += [(spk, cond, tok, "test", name) for spk, cond, tok, name in tests]
        manifest = corpus / "scoped.tsv"
        manifest.write_text("speaker\tsentence\tcondition\ttoken\tsplit\tpath\n" + "".join(
            f"{spk}\ts1\t{cond}\t{tok}\t{split}\tfeatures/{name}.lpcc\n"
            for spk, cond, tok, split, name in rows))
        bank, rep = corpus / "bank", corpus / "rep"
        assert run(capsys, "train", "--manifest", str(manifest), "--out", str(bank),
                   "--order", "1", "--states", "1", "--mixtures", "1",
                   "--topology", "ergodic", "--max-iter", "3")[0] == 0
        code, _, err = run(capsys, "evaluate", "--manifest", str(manifest),
                           "--bank", str(bank), "--out", str(rep))
        report = json.loads((rep / "report.json").read_text()) if code == 0 else None
        return code, err, report

    def test_prediction_outside_the_first_scope(self, corpus, capsys):
        # B's neutral test tokens are happy recordings, so B's bank says happy
        code, _, report = self._evaluate(capsys, corpus, [
            ("B", "neutral", tok, f"happy_00{tok}") for tok in range(4, 7)])
        assert code == 0
        assert report["labels"] == ["neutral", "angry", "happy"]
        assert report["counts"] == [[3, 0, 0], [0, 3, 0], [3, 0, 0]]

    def test_true_label_outside_the_first_scope(self, corpus, capsys):
        code, _, report = self._evaluate(capsys, corpus, [
            ("B", "happy", tok, f"happy_00{tok}") for tok in range(4, 7)])
        assert code == 0
        assert report["labels"] == ["neutral", "angry", "happy"]
        assert report["counts"] == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]

    @pytest.mark.parametrize("speaker,condition", [("B", "shouted"), ("A", "happy")])
    def test_label_outside_its_own_scope_exits_3(self, corpus, capsys, speaker, condition):
        code, err, _ = self._evaluate(capsys, corpus, [(speaker, condition, 4, "happy_004")])
        assert code == 3
        assert f"unknown condition label {condition!r}" in err


class TestEvaluateGroups:
    def test_group_counts_match_identify(self, synth_corpus, tmp_path, capsys):
        manifest = tmp_path / "grouped.tsv"
        lines = (synth_corpus / "manifest.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        for row in rows:
            row["group"] = "odd" if int(row["token"]) % 2 else "even"
            row["path"] = str(synth_corpus / row["path"])
        manifest.write_text("\n".join(["\t".join(header)] + [
            "\t".join(row[c] for c in header) for row in rows]) + "\n")
        bank, rep = tmp_path / "bank", tmp_path / "rep"
        assert run(capsys, "train", "--manifest", str(manifest), "--out", str(bank),
                   "--order", "2", "--states", "2", "--mixtures", "1",
                   "--topology", "ergodic", "--max-iter", "3")[0] == 0
        assert run(capsys, "evaluate", "--manifest", str(manifest), "--bank", str(bank),
                   "--out", str(rep))[0] == 0
        report = json.loads((rep / "report.json").read_text())
        labels = report["labels"]
        want = {g: np.zeros((2, 2), dtype=int) for g in ("odd", "even")}
        for row in rows:
            if int(row["token"]) <= 5:      # the 5-train / 4-test split
                continue
            code, out_text, _ = run(capsys, "identify", "--bank", str(bank),
                                    "--features", row["path"])
            assert code == 0
            want[row["group"]][labels.index(out_text.splitlines()[0]),
                               labels.index(row["condition"])] += 1
        assert report["group_counts"] == {g: c.tolist() for g, c in want.items()}
        assert np.array_equal(sum(want.values()), report["counts"])


class TestCompareErrors:
    def test_label_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"labels": ["x"], "rates": [50.0]}))
        b.write_text(json.dumps({"labels": ["y"], "rates": [60.0]}))
        code, _, err = run(capsys, "compare", str(a), str(b))
        assert code == 3
        assert "mismatch" in err

    def test_identical_reports_zero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"labels": ["x", "y"], "rates": [50.0, 75.0]}))
        code, out_text, _ = run(capsys, "compare", str(a), str(a),
                                "--format", "json")
        assert code == 0
        assert json.loads(out_text) == {"x": 0.0, "y": 0.0}

    def test_zero_baseline_rate_is_null_in_json(self, tmp_path, capsys):
        # no relative gain over a 0 % baseline; the other conditions keep theirs
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"labels": ["x", "y", "z"], "rates": [0.0, 30.0, 0]}))
        b.write_text(json.dumps({"labels": ["x", "y", "z"], "rates": [25.0, 38.0, 0]}))
        out = tmp_path / "table.json"
        code, out_text, err = run(capsys, "compare", str(a), str(b), "--format", "json",
                                  "--out", str(out))
        assert code == 0, err
        assert json.loads(out_text) == {"x": None, "y": 26.7, "z": None}
        assert json.loads(out.read_text()) == {"x": None, "y": 26.7, "z": None}

    def test_zero_baseline_rate_is_n_a_in_text(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"labels": ["x", "y"], "rates": [0.0, 30.0]}))
        b.write_text(json.dumps({"labels": ["x", "y"], "rates": [25.0, 38.0]}))
        code, out_text, err = run(capsys, "compare", str(a), str(b))
        assert code == 0, err
        assert out_text.splitlines() == ["AVERAGE IMPROVEMENT RATE",
                                         "Model    x     y",
                                         "    %  n/a  26.7"]


def test_parser_built_once_and_each_call_parses_its_own_arguments(monkeypatch):
    seen = []
    for name in ("cmd_train", "cmd_identify", "cmd_compare"):
        monkeypatch.setattr(cli, name,
                            lambda args, name=name: seen.append((name, vars(args))) or 0)
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:   # the parser built now holds the recorders above, so it must not outlive the test
        assert main(["train", "--manifest", "m", "--out", "o", "--pooled", "--order", "1",
                     "--seed", "4"]) == 0
        assert main(["identify", "--bank", "b", "--features", "f", "--scoring", "viterbi"]) == 0
        assert main(["train", "--manifest", "m2", "--out", "o2"]) == 0
        assert main(["identify", "--bank", "b", "--features", "f"]) == 0
        assert main(["compare", "x", "y"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert [name for name, _ in seen] == ["cmd_train", "cmd_identify", "cmd_train",
                                          "cmd_identify", "cmd_compare"]
    (_, train1), (_, identify1), (_, train2), (_, identify2), (_, compare) = seen
    assert (train1["manifest"], train1["pooled"], train1["order"], train1["seed"]) == \
        ("m", True, 1, 4)
    assert (train2["manifest"], train2["pooled"], train2["order"], train2["seed"]) == \
        ("m2", False, 2, 0)
    assert (identify1["scoring"], identify2["scoring"]) == ("viterbi", "forward")
    assert "scoring" not in train2 and "pooled" not in identify2
    assert (compare["baseline"], compare["new"], compare["out"]) == ("x", "y", None)
    assert "bank" not in compare and "manifest" not in compare


_NOISE = (np.random.default_rng(0).normal(0, 0.05, 4800) * 32767).astype(np.int16)
_WAV = make_wav_bytes(_NOISE)
_MANIFEST = "speaker\tsentence\tcondition\ttoken\tpath\ns1\tt1\tneutral\t1\tu.wav\n"

# (u.wav bytes, manifest text, extra options, expected stderr text); the
# default window at 16 kHz is 480 samples
BAD_EXTRACT_INPUTS = [
    pytest.param(_WAV[:-1], _MANIFEST, [], "middle of a sample", id="cut_mid_sample"),
    pytest.param(make_wav_bytes(_NOISE[:0]), _MANIFEST, [], "no samples", id="header_only"),
    pytest.param(make_wav_bytes(np.full(4800, 128), sampwidth=1), _MANIFEST, [], "16-bit",
                 id="8_bit"),
    pytest.param(make_wav_bytes(np.repeat(_NOISE, 2), channels=2), _MANIFEST, [], "mono",
                 id="stereo"),
    pytest.param(make_wav_bytes(_NOISE[:479]), _MANIFEST, [], "shorter than",
                 id="shorter_than_window"),
    pytest.param(_WAV[:-1000], _MANIFEST, [], "the file is cut", id="cut_data_chunk"),
    pytest.param(_WAV, "speaker\tcondition\tpath\ns1\tneutral\tu.wav\n", [],
                 "missing required columns", id="missing_columns"),
    pytest.param(_WAV, _MANIFEST.replace("s1", "s\0"), [], "line 2: a field holds a NUL",
                 id="nul_in_speaker"),
    pytest.param(_WAV, _MANIFEST, ["--lpc-order", "480"], "max_lag 480",
                 id="lpc_order_ge_window"),
    pytest.param(_WAV, _MANIFEST, ["--window-ms", "nan"], "finite and positive",
                 id="window_nan"),
    pytest.param(_WAV, _MANIFEST, ["--shift-ms", "nan"], "finite and positive",
                 id="shift_nan"),
    pytest.param(_WAV, _MANIFEST, ["--window-ms", "inf"], "finite and positive",
                 id="window_inf"),
    pytest.param(_WAV, _MANIFEST, ["--shift-ms", "0.01"], "shift >= 1",
                 id="shift_zero_samples"),
    pytest.param(_WAV, _MANIFEST, ["--window-ms", "0.07", "--shift-ms", "0.05"],
                 "window needs", id="window_one_sample"),
]


class TestExtract:
    def _manifest(self, tmp_path, rows):
        lines = ["speaker\tsentence\tcondition\ttoken\tpath"]
        lines += rows
        path = tmp_path / "manifest.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _noise_wav(self, tmp_path, name, seed, n=4800):
        rng = np.random.default_rng(seed)
        samples = (rng.normal(0, 0.05, n) * 32767).clip(-32768, 32767).astype(np.int16)
        (tmp_path / name).write_bytes(make_wav_bytes(samples))

    def test_extract_ok(self, tmp_path, capsys):
        for i in range(3):
            self._noise_wav(tmp_path, f"u{i}.wav", seed=i)
        manifest = self._manifest(tmp_path, [
            f"s1\tt1\tneutral\t{i + 1}\tu{i}.wav" for i in range(3)])
        out = tmp_path / "feat"
        code, out_text, _ = run(capsys, "extract", "--manifest", str(manifest),
                                "--out", str(out))
        assert code == 0
        assert "extracted 3/3" in out_text
        assert len([f for f in os.listdir(out) if f.endswith(".lpcc")]) == 3

    def test_extract_process_leaves_the_model_stack_unloaded(self, tmp_path):
        """In a fresh interpreter, neither `import hmm2tc.cli` nor an extract
        call loads the HMM stack; a train call after them in the same process
        imports it where it runs, and succeeds."""
        self._noise_wav(tmp_path, "u0.wav", seed=32)
        manifest = self._manifest(tmp_path, ["s1\tt1\tneutral\t1\tu0.wav"])
        script = """
import contextlib, io, json, sys
STACK = ("classify", "em", "lattice", "gmm", "hmm1", "hmm2", "init")
loaded = lambda: [m for m in STACK if "hmm2tc." + m in sys.modules]
from hmm2tc import cli
report = {"import": loaded()}
feat, bank = sys.argv[2], sys.argv[3]
with contextlib.redirect_stdout(io.StringIO()):
    report["extract"] = cli.main(["extract", "--manifest", sys.argv[1], "--out", feat])
    report["after_extract"] = loaded()
    report["train"] = cli.main(["train", "--manifest", feat + "/manifest.tsv", "--out", bank,
                                "--states", "2", "--mixtures", "1", "--max-iter", "2",
                                "--train-count", "1", "--test-count", "0"])
report["after_train"] = loaded()
print(json.dumps(report))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", script, str(manifest), str(tmp_path / "feat"),
             str(tmp_path / "bank")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
        report = json.loads(done.stdout)
        assert report == {"import": [], "extract": 0, "after_extract": [], "train": 0,
                          "after_train": ["classify", "em", "lattice", "gmm", "hmm1",
                                          "hmm2", "init"]}

    def test_extract_corrupt_file(self, tmp_path, capsys):
        self._noise_wav(tmp_path, "good.wav", seed=1)
        (tmp_path / "bad.wav").write_bytes(b"junk")
        manifest = self._manifest(tmp_path, [
            "s1\tt1\tneutral\t1\tgood.wav", "s1\tt1\tneutral\t2\tbad.wav"])
        out = tmp_path / "feat"
        code, out_text, err = run(capsys, "extract", "--manifest", str(manifest),
                                  "--out", str(out))
        assert code == 3
        assert "extracted 1/2" in out_text
        assert "bad.wav" in err

    def test_extract_deterministic(self, tmp_path, capsys):
        self._noise_wav(tmp_path, "u.wav", seed=2)
        manifest = self._manifest(tmp_path, ["s1\tt1\tneutral\t1\tu.wav"])
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            assert run(capsys, "extract", "--manifest", str(manifest),
                       "--out", str(out))[0] == 0
            outs.append([(out / f).read_bytes() for f in
                         ("s1_t1_neutral_001.lpcc", "manifest.tsv", "extract_log.json")])
        assert outs[0] == outs[1]

    def test_extract_log(self, tmp_path, capsys):
        self._noise_wav(tmp_path, "noise.wav", seed=3)
        rng = np.random.default_rng(4)
        samples = (rng.normal(0, 0.05, 4800) * 32767).astype(np.int16)
        samples[1600:3200] = 0                       # 100 ms of digital silence
        (tmp_path / "gap.wav").write_bytes(make_wav_bytes(samples))
        manifest = self._manifest(tmp_path, [
            "s1\tt1\tneutral\t1\tnoise.wav", "s1\tt1\tangry\t1\tgap.wav",
            "s1\tt1\tangry\t2\tmissing.wav"])
        out = tmp_path / "feat"
        code, out_text, _ = run(capsys, "extract", "--manifest", str(manifest),
                                "--out", str(out))
        assert code == 3
        log = json.loads((out / "extract_log.json").read_text())
        assert [(f["source"], f["features"], f["frames"]) for f in log["files"]] == [
            ("noise.wav", "s1_t1_neutral_001.lpcc", 55),
            ("gap.wav", "s1_t1_angry_001.lpcc", 55)]
        # the frames wholly inside the gap: starts 1600 .. 2720 in steps of 80
        assert [f["degenerate_frames"] for f in log["files"]] == [0, 15]
        assert out_text == "extracted 2/3 files, 110 frames (15 degenerate)\n"

    @pytest.mark.parametrize("options", [
        [],
        ["--pre-emphasis", "0.97"],
        ["--lpc-order", "12", "--cepstral-order", "8"],
        ["--lpc-order", "6", "--cepstral-order", "20", "--pre-emphasis", "0.97"],
    ])
    def test_blocks_write_what_each_clip_gives_alone(self, tmp_path, capsys, monkeypatch,
                                                     options):
        # 55, 82, 32, 121 and 60 frames: under a 120-frame budget the good
        # files make the blocks {u0}, {u1, u2}, {u3} (over the budget alone)
        # and {u4}; the corrupt and the too-short file sit between them
        rng = np.random.default_rng(8)
        wavs = {"u0.wav": 4800, "u1.wav": 7000, "bad.wav": None, "u2.wav": 3000,
                "short.wav": 479, "u3.wav": 10080, "u4.wav": 5200}
        for name, n in wavs.items():
            if n is None:
                (tmp_path / name).write_bytes(b"RIFF junk")
                continue
            samples = (rng.normal(0, 0.05, n) * 32767).astype(np.int16)
            if name == "u1.wav":
                samples[1600:3200] = 0               # 100 ms of digital silence
            (tmp_path / name).write_bytes(make_wav_bytes(samples))
        manifest = self._manifest(tmp_path, [f"s1\tt1\tneutral\t{i + 1}\t{name}"
                                             for i, name in enumerate(wavs)])
        blocks = []

        def spy(autocorrelations, *rest):
            blocks.append([len(r) for r in autocorrelations])
            return lpcc_sequences(autocorrelations, *rest)

        monkeypatch.setattr(cli, "EXTRACT_BLOCK_FRAMES", 120)
        monkeypatch.setattr(cli, "lpcc_sequences", spy)
        out = tmp_path / "feat"
        code, out_text, err = run(capsys, "extract", "--manifest", str(manifest),
                                  "--out", str(out), *options)
        assert blocks == [[55], [82, 32], [121], [60]]

        # the per-file loop: each clip through extract_features on its own
        args = cli.build_parser().parse_args(["extract", "--manifest", "m", "--out", "o",
                                              *options])
        params = FrameParams(window_ms=args.window_ms, shift_ms=args.shift_ms,
                             lpc_order=args.lpc_order, cepstral_order=args.cepstral_order,
                             pre_emphasis=args.pre_emphasis)
        log, entries, errors = [], [], ""
        for token, name in enumerate(wavs, 1):
            try:
                clip = decode_pcm16_wav((tmp_path / name).read_bytes())
                seq = extract_features(clip, params, source_id=name)
            except Hmm2tcError as exc:
                errors += f"error: {tmp_path / name}: {exc}\n"
                continue
            rel = f"s1_t1_neutral_{token:03d}.lpcc"
            save_features(seq, tmp_path / "want.lpcc")
            assert (out / rel).read_bytes() == (tmp_path / "want.lpcc").read_bytes()
            log.append({"source": name, "features": rel, "frames": seq.T,
                        "degenerate_frames": seq.degenerate_frames})
            entries.append(ManifestEntry("s1", "t1", "neutral", token, rel))
        assert sorted(os.listdir(out)) == sorted(
            [e.path for e in entries] + ["extract_log.json", "manifest.tsv"])
        assert code == 3
        assert out_text == (f"extracted 5/7 files, {sum(f['frames'] for f in log)} frames "
                            f"({sum(f['degenerate_frames'] for f in log)} degenerate)\n")
        assert err == errors and "bad.wav" in err and "short.wav" in err
        assert (out / "extract_log.json").read_text() == json.dumps(
            {"files": log}, sort_keys=True, indent=1)
        assert (out / "manifest.tsv").read_text() == format_manifest(entries)

    def test_corrupt_fmt_chunk_size_exits_3(self, tmp_path, capsys):
        # a fmt chunk size that runs past the file
        self._noise_wav(tmp_path, "good.wav", seed=1)
        wav = bytearray(make_wav_bytes(np.zeros(4800, dtype=np.int16)))
        assert wav[12:16] == b"fmt "
        wav[16:20] = struct.pack("<I", 0xEBBF22CE)
        (tmp_path / "bad.wav").write_bytes(wav)
        manifest = self._manifest(tmp_path, [
            "s1\tt1\tneutral\t1\tgood.wav", "s1\tt1\tneutral\t2\tbad.wav"])
        code, out_text, err = run(capsys, "extract", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "feat"))
        assert code == 3
        assert "extracted 1/2" in out_text
        assert "bad.wav: malformed WAV file: a chunk size runs past the file" in err
        assert "Traceback" not in err

    def test_every_file_failing_exits_3(self, tmp_path, capsys):
        (tmp_path / "bad.wav").write_bytes(b"junk")
        self._noise_wav(tmp_path, "short.wav", seed=1, n=479)
        manifest = self._manifest(tmp_path, [
            "s1\tt1\tneutral\t1\tbad.wav", "s1\tt1\tneutral\t2\tshort.wav"])
        code, out_text, err = run(capsys, "extract", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "feat"))
        assert code == 3
        assert out_text == "extracted 0/2 files, 0 frames (0 degenerate)\n"
        assert "bad.wav" in err and "short.wav" in err and "Traceback" not in err

    def test_colliding_names_exit_3(self, tmp_path, capsys):
        for i in range(2):
            self._noise_wav(tmp_path, f"u{i}.wav", seed=i)
        manifest = self._manifest(tmp_path, ["a_b\tc\tx\t1\tu0.wav", "a\tb_c\tx\t1\tu1.wav"])
        out = tmp_path / "feat"
        code, _, err = run(capsys, "extract", "--manifest", str(manifest), "--out", str(out))
        assert code == 3
        assert "('a_b', 'c', 'x', 1)" in err and "('a', 'b_c', 'x', 1)" in err
        assert not out.exists()

    def test_absolute_speaker_exits_3(self, tmp_path, capsys):
        self._noise_wav(tmp_path, "u.wav", seed=0)
        escape = tmp_path / "escape"
        manifest = self._manifest(tmp_path, [f"{escape}\tt1\tneutral\t1\tu.wav"])
        out = tmp_path / "feat"
        code, _, err = run(capsys, "extract", "--manifest", str(manifest), "--out", str(out))
        assert code == 3 and "line 2" in err
        assert sorted(os.listdir(tmp_path)) == ["manifest.tsv", "u.wav"]

    @pytest.mark.parametrize("wav, manifest, options, message", BAD_EXTRACT_INPUTS)
    def test_bad_input_exits_cleanly(self, tmp_path, capsys, wav, manifest, options,
                                     message):
        (tmp_path / "u.wav").write_bytes(wav)
        (tmp_path / "manifest.tsv").write_text(manifest)
        code = main(["extract", "--manifest", str(tmp_path / "manifest.tsv"),
                      "--out", str(tmp_path / "feat"), *options])
        err = capsys.readouterr().err
        assert code in (2, 3, 4)
        assert "Traceback" not in err
        assert message in err


# Byte offsets of the u32 size fields in make_wav_bytes' 44-byte header:
# the RIFF container, the fmt chunk and the data chunk.
WAV_SIZE_FIELDS = (4, 16, 40)
# Frame settings at and past their limits, at 16 kHz: a 2-sample window at a
# 1-sample shift, a shift that does not divide the window, a shift equal to
# the window, an LPC order of window - 1 and of window, a window as long as
# the clip at a 1-sample shift, a window past any clip, a shift and a window
# that round below their minimum, an LPC order of 0 and a negative window.
EDGE_EXTRACT_OPTIONS = [
    [],
    ["--window-ms", "0.125", "--shift-ms", "0.0625", "--lpc-order", "1"],
    ["--window-ms", "25", "--shift-ms", "10", "--pre-emphasis", "0.97"],
    ["--window-ms", "30", "--shift-ms", "30"],
    ["--window-ms", "1", "--shift-ms", "1", "--lpc-order", "15", "--cepstral-order", "1"],
    ["--window-ms", "1", "--shift-ms", "1", "--lpc-order", "16"],
    ["--window-ms", "100", "--shift-ms", "0.0625"],
    ["--window-ms", "1e306"],
    ["--shift-ms", "0.03"],
    ["--window-ms", "0.07", "--shift-ms", "0.05"],
    ["--lpc-order", "0"],
    ["--window-ms", "-1"],
]


def _mutated_wav(rng, wav: bytes) -> bytes:
    """One of four byte-level faults: header bit flips, a random u32 chunk
    size, a truncation, or bytes appended (raw or as one more chunk)."""
    data = bytearray(wav)
    kind = rng.integers(4)
    if kind == 0:
        for _ in range(rng.integers(1, 4)):
            data[rng.integers(44)] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        size = rng.choice([0, 1, 0x7FFFFFFF, 0xFFFFFFFF, int(rng.integers(2**32))])
        data[(at := int(rng.choice(WAV_SIZE_FIELDS))): at + 4] = struct.pack("<I", size)
    elif kind == 2:
        del data[rng.integers(len(data)):]
    else:
        tail = rng.bytes(int(rng.integers(1, 256)))
        data += b"LIST" + struct.pack("<I", len(tail)) + tail if rng.random() < 0.5 else tail
    return bytes(data)


class TestWavFuzz:
    """extract on a mutated WAV, under frame settings at their limits, exits
    0 or 3 with no traceback (and no RuntimeWarning, an error in this suite)."""

    CASES = 300

    def test_mutated_wavs_exit_0_or_3(self, tmp_path, capsys):
        samples = (np.random.default_rng(5).normal(0, 0.1, 1600) * 32767).astype(np.int16)
        wav = make_wav_bytes(samples)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(_MANIFEST)
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([29, case])
            (tmp_path / "u.wav").write_bytes(_mutated_wav(rng, wav))
            options = EDGE_EXTRACT_OPTIONS[case % len(EDGE_EXTRACT_OPTIONS)]
            code, _, err = run(capsys, "extract", "--manifest", str(manifest),
                               "--out", str(tmp_path / "feat"), *options)
            assert code in (0, 3) and "Traceback" not in err, (case, options, code, err)
            # every refusal says what is wrong: text follows its last ": "
            assert all(line.rsplit(": ", 1)[-1].strip() for line in err.splitlines()), (
                case, options, err)
            codes.append(code)
        assert {0, 3} <= set(codes)


def _lpcc(frames) -> bytes:
    frames = np.asarray(frames, dtype="<f8")
    return b"LPCC\x01" + np.array(frames.shape, dtype="<u4").tobytes() + frames.tobytes()


def _cut_features(bank, feat):
    feat.write_bytes(feat.read_bytes()[:-16])


def _odd_features(bank, feat):
    feat.write_bytes(feat.read_bytes() + b"\x00")


def _no_frames(bank, feat):
    feat.write_bytes(_lpcc(np.zeros((0, 3))))


def _wrong_dim(bank, feat):
    feat.write_bytes(_lpcc(np.zeros((40, 4))))


def _one_frame(bank, feat):
    feat.write_bytes(_lpcc(np.zeros((1, 3))))


def _one_huge_value(bank, feat):
    frames = np.frombuffer(feat.read_bytes()[13:], dtype="<f8").reshape(-1, 3).copy()
    frames[5, 0] = 1e200
    feat.write_bytes(_lpcc(frames))


def _huge_features(bank, feat):
    frames = np.full((40, 3), 1e306)
    frames[::2] *= -1
    feat.write_bytes(_lpcc(frames))


def _missing_model(bank, feat):
    (bank / json.loads((bank / "bank.json").read_text())["scopes"][0]["models"]["b"]).unlink()


def _model_not_text(bank, feat):
    (bank / json.loads((bank / "bank.json").read_text())["scopes"][0]["models"]["a"]).write_bytes(
        b"\xff\xfe\x00\x01")


def _bank_not_json(bank, feat):
    (bank / "bank.json").write_text('{"scopes": [')


def _bank_wrong_shape(bank, feat):
    (bank / "bank.json").write_text('{"order": 2, "protocol": "pooled", "scopes": [{"labels": 1}]}')


# each breaks a copy of a trained bank directory or of one utterance's
# feature file (bank, feature path) -> None
BAD_SCORING_INPUTS = [_cut_features, _odd_features, _no_frames, _wrong_dim, _one_frame,
                      _one_huge_value, _huge_features, _missing_model, _model_not_text,
                      _bank_not_json, _bank_wrong_shape]

# (exit code, message) of evaluate on an utterance that the order-2 bank
# cannot score: the message names the utterance's file
UNSCORABLE = {
    _wrong_dim: (3, "error: u.lpcc: observation dim 4 != bank dim 3"),
    _one_frame: (3, "error: u.lpcc: second-order recursions require T >= 2"),
    _one_huge_value: (4, "numeric error: u.lpcc: no model assigns nonzero probability"),
}


class TestScoringFuzz:
    """identify and evaluate on broken banks and feature files."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write_synth_spec(root / "spec.json")
        assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
        assert main(["train", "--manifest", str(root / "c" / "manifest.tsv"), "--out",
                     str(root / "bank"), "--states", "2", "--mixtures", "1",
                     "--topology", "ergodic", "--max-iter", "2", "--pooled"]) == 0
        return root

    @pytest.mark.parametrize("command", ["identify", "evaluate"])
    @pytest.mark.parametrize("breaker", BAD_SCORING_INPUTS, ids=lambda f: f.__name__[1:])
    def test_bad_input_exits_cleanly(self, trained, tmp_path, capsys, command, breaker):
        bank = tmp_path / "bank"
        shutil.copytree(trained / "bank", bank)
        feat = tmp_path / "u.lpcc"
        shutil.copyfile(trained / "c" / "features" / "a_006.lpcc", feat)
        breaker(bank, feat)
        capsys.readouterr()
        if command == "identify":
            code = main(["identify", "--bank", str(bank), "--features", str(feat)])
        else:
            (tmp_path / "m.tsv").write_text("speaker\tsentence\tcondition\ttoken\tsplit\tpath\n"
                                            "s\tt\ta\t1\ttest\tu.lpcc\n")
            code = main(["evaluate", "--manifest", str(tmp_path / "m.tsv"), "--bank", str(bank),
                         "--out", str(tmp_path / "rep")])
        out, err = capsys.readouterr()
        assert code in (2, 3, 4), (code, err)
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        if command == "evaluate" and breaker in UNSCORABLE:
            want_code, message = UNSCORABLE[breaker]
            assert code == want_code and message in err, (code, err)


def _set(part, index, value):
    """A fault that sets one entry of state 0's mixture part (or of a3)."""
    def fault(doc):
        target = doc["a3"] if part == "a3" else doc["mixtures"][0][part]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value(target[index[-1]]) if callable(value) else value
    return fault


WEIGHTS_MESSAGE = "component weights must be nonnegative and sum to 1"
VARIANCES_MESSAGE = "variances must be finite and strictly positive"
# (fault, message) for a model file of a left-right order-2 bank (N = M = 2)
MODEL_FAULTS = {
    "nan_weight": (_set("weights", [0], float("nan")), WEIGHTS_MESSAGE),
    "infinite_weight": (_set("weights", [0], float("inf")), WEIGHTS_MESSAGE),
    "negative_weight": (lambda doc: doc["mixtures"][0].update(weights=[-0.25, 1.25]),
                        WEIGHTS_MESSAGE),
    "weight_sum_off": (_set("weights", [0], lambda w: w + 2e-10), WEIGHTS_MESSAGE),
    "zero_variance": (_set("variances", [1, 0], 0.0), VARIANCES_MESSAGE),
    "nan_variance": (_set("variances", [1, 0], float("nan")), VARIANCES_MESSAGE),
    "infinite_mean": (_set("means", [0, 1], float("-inf")), "means must be finite"),
    "nan_mean": (_set("means", [0, 1], float("nan")), "means must be finite"),
    "backward_a3": (_set("a3", [0, 1], [0.5, 0.5]),
                    "left-right topology forbids backward a3 transitions"),
    # positive, but its reciprocal overflows in the emission formula
    "subnormal_variance": (_set("variances", [1, 0], 1e-320),
                           "variances must have finite reciprocals"),
}


def _pack_bytes(docs) -> bytes:
    """A pack of model documents' arrays, in the order the pack layout gives,
    written from the documents alone (no model check runs)."""
    parts = []
    for doc in docs:
        parts += [doc[key] for key in ("psi", "a2", "a3")[:doc["order"] + 1]]
        parts += [[state[part] for state in doc["mixtures"]]
                  for part in ("weights", "means", "variances")]
    return b"".join(np.asarray(x, dtype="<f8").tobytes() for x in parts)


class TestModelFaults:
    """identify on a bank whose model file breaks one model check."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("faults")
        write_synth_spec(root / "spec.json")
        assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
        assert main(["train", "--manifest", str(root / "c" / "manifest.tsv"), "--out",
                     str(root / "bank"), "--states", "2", "--mixtures", "2", "--order", "2",
                     "--topology", "left-right", "--max-iter", "2", "--pooled"]) == 0
        return root

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_faulty_model_exits_3(self, trained, tmp_path, capsys, fault):
        bank = tmp_path / "bank"
        shutil.copytree(trained / "bank", bank)
        scope = json.loads((bank / "bank.json").read_text())["scopes"][0]
        model_path = bank / scope["models"]["b"]
        doc = json.loads(model_path.read_text())
        assert doc["a3"][0][1] == [0.0, 1.0]
        breaker, message = MODEL_FAULTS[fault]
        breaker(doc)
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["identify", "--bank", str(bank), "--features",
                     str(trained / "c" / "features" / "a_006.lpcc")])
        out, err = capsys.readouterr()
        assert code == 3, err
        assert out == "" and "Traceback" not in err and message in err

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_faulty_pack_is_refused(self, trained, tmp_path, fault):
        scope = json.loads((trained / "bank" / "bank.json").read_text())["scopes"][0]
        docs = [json.loads((trained / "bank" / scope["models"][lab]).read_text())
                for lab in scope["labels"]]
        layout = (len(docs), 2, 2, 2, "left-right")
        for broken in (False, True):
            if broken:
                MODEL_FAULTS[fault][0](docs[1])
            data = _pack_bytes(docs)
            (tmp_path / "pack.f8").write_bytes(data)
            models = load_pack(tmp_path / "pack.f8", hashlib.sha256(data).hexdigest(), *layout)
            assert (models is None) == broken

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_faulty_pack_with_matching_digests_falls_back_to_json(self, trained, tmp_path,
                                                                  capsys, monkeypatch, fault):
        # the model file and the pack both carry the fault, and bank.json the
        # digests of both, so the pack is read and only the model checks can
        # refuse it; identify then says what the unpacked bank says
        bank = tmp_path / "bank"
        shutil.copytree(trained / "bank", bank)
        doc = json.loads((bank / "bank.json").read_text())
        scope = doc["scopes"][0]
        paths = [bank / scope["models"][lab] for lab in scope["labels"]]
        docs = [json.loads(path.read_text()) for path in paths]
        packs = []
        monkeypatch.setattr(cli, "load_pack", lambda *a: packs.append(load_pack(*a)) or packs[-1])
        features = str(trained / "c" / "features" / "a_006.lpcc")
        for broken in (False, True):
            if broken:
                MODEL_FAULTS[fault][0](docs[1])
            for path, model_doc in zip(paths, docs):
                path.write_text(json.dumps(model_doc))
            data = _pack_bytes(docs)
            (bank / scope["packed"]["path"]).write_bytes(data)
            scope["packed"].update(sha256=hashlib.sha256(data).hexdigest(), model_sha256=[
                hashlib.sha256(path.read_bytes()).hexdigest() for path in paths])
            (bank / "bank.json").write_text(json.dumps(doc))
            capsys.readouterr()
            code = main(["identify", "--bank", str(bank), "--features", features])
            assert (packs[-1] is None, code) == (broken, 3 if broken else 0)
        packed = capsys.readouterr()
        shutil.rmtree(bank / "packed")
        assert main(["identify", "--bank", str(bank), "--features", features]) == 3
        assert packs[-1] is None and capsys.readouterr() == packed
        assert MODEL_FAULTS[fault][1] in packed.err and "Traceback" not in packed.err


def _largest_spread(doc) -> float:
    """The largest ratio |mu - c| / sqrt(s) in a model document, c the mean
    of its state's component means."""
    means, variances = (np.array([state[part] for state in doc["mixtures"]])
                        for part in ("means", "variances"))
    return float((np.abs(means - means.mean(axis=1, keepdims=True)) / np.sqrt(variances)).max())


class TestFarComponentMean:
    """A component mean past MEAN_SPREAD is scored exactly, not refused."""

    def test_far_mean_lowers_its_model_and_keeps_the_winner(self, tmp_path, capsys):
        # one component mean of b at 1e154: b can only lose density, so its
        # scores fall, and each token's winner stays
        write_synth_spec(tmp_path / "spec.json")
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out",
                     str(tmp_path / "c")]) == 0
        bank = tmp_path / "bank"
        assert main(["train", "--manifest", str(tmp_path / "c" / "manifest.tsv"), "--out",
                     str(bank), "--states", "2", "--mixtures", "2", "--order", "2",
                     "--topology", "left-right", "--max-iter", "2", "--pooled"]) == 0
        capsys.readouterr()

        def identify():   # [winner, a's score, b's score] for a token of each label
            outputs = [run(capsys, "identify", "--bank", str(bank), "--features",
                           str(tmp_path / "c" / "features" / f"{name}.lpcc"))
                       for name in ("a_006", "b_006")]
            assert all(code == 0 and err == "" for code, _, err in outputs)
            return [out.split()[:5:2] for _, out, _ in outputs]

        before = identify()
        assert [winner for winner, _, _ in before] == ["a", "b"]
        scope = json.loads((bank / "bank.json").read_text())["scopes"][0]
        model_path = bank / scope["models"]["b"]
        doc = json.loads(model_path.read_text())
        _set("means", [0, 0], 1e154)(doc)
        model_path.write_text(json.dumps(doc))
        after = identify()
        assert [token[:2] for token in after] == [token[:2] for token in before]
        fall = [float(new[2]) - float(old[2]) for old, new in zip(before, after)]
        assert max(fall) <= 0 and min(fall) < 0

    def test_train_writes_what_identify_and_evaluate_score(self, tmp_path, capsys, monkeypatch):
        # b's flat start gets a component 1e6 away from its frames, which
        # stays empty through EM: train writes a model past MEAN_SPREAD, and
        # identify (from the pack and from the JSON) and evaluate score it
        write_synth_spec(tmp_path / "spec.json")
        corpus = tmp_path / "c"
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(corpus)]) == 0
        flat_start = classify.flat_start

        def far_start(*args):
            models = flat_start(*args)
            mix = models[1].mixtures
            means = mix.means.copy()
            means[0, 1, 0] += 1e6
            models[1] = dataclasses.replace(
                models[1], mixtures=GaussianMixture(mix.weights, means, mix.variances))
            return models

        monkeypatch.setattr(classify, "flat_start", far_start)
        bank = tmp_path / "bank"
        assert main(["train", "--manifest", str(corpus / "manifest.tsv"), "--out", str(bank),
                     "--states", "2", "--mixtures", "2", "--order", "2", "--topology",
                     "left-right", "--max-iter", "3", "--pooled"]) == 0
        scope = json.loads((bank / "bank.json").read_text())["scopes"][0]
        assert _largest_spread(json.loads((bank / scope["models"]["b"]).read_text())) \
            > MEAN_SPREAD
        outputs = []
        for unpacked in (False, True):
            if unpacked:
                shutil.rmtree(bank / "packed")
            capsys.readouterr()
            for name in ("a_006", "b_006"):
                assert main(["identify", "--bank", str(bank), "--features",
                             str(corpus / "features" / f"{name}.lpcc")]) == 0
            assert main(["evaluate", "--manifest", str(corpus / "manifest.tsv"), "--bank",
                         str(bank), "--out", str(tmp_path / "report")]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        assert outputs[0].out.split()[0:10:5] == ["a", "b"]   # the two winners


def _train_args(root, manifest="manifest.tsv", *extra):
    return ["train", "--manifest", str(root / manifest), "--out", str(root / "bank"),
            "--states", "2", "--mixtures", "1", "--topology", "ergodic", "--max-iter", "2",
            "--pooled", *extra]


def _set_frame(root, name, row, value, column=0):
    path = root / "features" / name
    frames = np.frombuffer(path.read_bytes()[13:], dtype="<f8").reshape(-1, 3).copy()
    frames[row, column] = value
    path.write_bytes(_lpcc(frames))


def _rewrite_manifest(root, edit):
    lines = (root / "manifest.tsv").read_text().splitlines()
    (root / "manifest.tsv").write_text("\n".join([lines[0]] + [edit(ln) for ln in lines[1:]])
                                       + "\n")


def _all_test(root):
    # every label without a training entry
    _rewrite_manifest(root, lambda ln: ln.replace("\tauto\t", "\ttest\t"))
    return _train_args(root)


def _no_train_tokens(root):
    return _train_args(root, "manifest.tsv", "--train-count", "0")


def _binary_manifest(root):
    (root / "manifest.tsv").write_bytes(b"\xff\xfe\x00speaker")
    return _train_args(root)


def _nul_in_path(root):
    _rewrite_manifest(root, lambda ln: ln.replace(".lpcc", ".lpcc\0"))
    return _train_args(root)


def _missing_features(root):
    (root / "features" / "b_002.lpcc").unlink()
    return _train_args(root)


def _wrong_dim_features(root):
    (root / "features" / "b_002.lpcc").write_bytes(_lpcc(np.zeros((40, 4))))
    return _train_args(root)


def _one_frame_sequence(root):
    (root / "features" / "b_002.lpcc").write_bytes(_lpcc(np.zeros((2, 3))))
    return _train_args(root)


def _one_frame_sequence_order1(root):
    (root / "features" / "b_002.lpcc").write_bytes(_lpcc(np.zeros((1, 3))))
    return _train_args(root, "manifest.tsv", "--order", "1")


def _frame_too_large_to_square(root):
    _set_frame(root, "a_001.lpcc", 5, 1e200)
    return _train_args(root)


def _squared_norm_overflows(root):
    # each value of the frame can be squared, the sum of their squares cannot
    for column in range(3):
        _set_frame(root, "a_001.lpcc", 5, 1.2e154, column)
    return _train_args(root)


def _zero_iterations(root):
    return _train_args(root, "manifest.tsv", "--max-iter", "0")


def _nan_tolerance(root):
    return _train_args(root, "manifest.tsv", "--tol", "nan")


def _negative_iterations(root):
    return _train_args(root, "manifest.tsv", "--max-iter", "-1")


def _negative_states(root):
    return _train_args(root, "manifest.tsv", "--states", "-1")


def _zero_mixtures(root):
    return _train_args(root, "manifest.tsv", "--mixtures", "0")


def _nan_states(root):
    return _train_args(root, "manifest.tsv", "--states", "nan")


def _negative_seed(root):
    return _train_args(root, "manifest.tsv", "--seed", "-1")


def _negative_shuffle_seed(root):
    return _train_args(root, "manifest.tsv", "--shuffle-seed", "-1")


# each breaks a copy of a synthetic corpus (root) -> hmm2tc train arguments
BAD_TRAIN_INPUTS = [_all_test, _no_train_tokens, _binary_manifest, _nul_in_path,
                    _missing_features, _wrong_dim_features, _one_frame_sequence,
                    _one_frame_sequence_order1, _frame_too_large_to_square,
                    _squared_norm_overflows, _zero_iterations, _nan_tolerance,
                    _negative_iterations, _negative_states, _zero_mixtures, _nan_states,
                    _negative_seed, _negative_shuffle_seed]

# what the error message of a breaker above must say: the condition and file
NAMED_IN_TRAIN_ERROR = {
    _wrong_dim_features: "condition 'b': features/b_002.lpcc has 4 dimensions, "
                         "the first training sequence 3",
    _one_frame_sequence: "condition 'b': features/b_002.lpcc has T = 2; "
                         "order-2 training needs T >= 3",
    _one_frame_sequence_order1: "condition 'b': features/b_002.lpcc has T = 1; "
                                "order-1 training needs T >= 2",
    _frame_too_large_to_square: "condition 'a': features/a_001.lpcc frame 5",
    _squared_norm_overflows: "condition 'a': features/a_001.lpcc frame 5",
}

# report file contents that `compare` must refuse
BAD_REPORTS = {
    "not_json": b'{"labels": [',
    "not_text": b"\xff\xfe\x00\x01",
    "labels_not_a_list": b'{"labels": 3, "rates": [1.0]}',
    "no_rates": b'{"labels": ["x"]}',
    "rate_not_a_number": b'{"labels": ["x"], "rates": ["50"]}',
    "rate_nan": b'{"labels": ["x"], "rates": [NaN]}',
    "one_rate_short": b'{"labels": ["x", "y"], "rates": [50.0]}',
    "a_list": b'[["x"], [50.0]]',
}

# synth spec contents that `synth` must refuse
BAD_SPECS = {
    "not_json": '{"labels": [',
    "no_labels": '{"frames": [40, 60]}',
    "labels_not_strings": '{"labels": [1, 2]}',
    "labels_a_string": '{"labels": "ab"}',
    "frames_three": '{"labels": ["a"], "frames": [40, 50, 60]}',
    "frames_text": '{"labels": ["a"], "frames": "40"}',
    "frames_reversed": '{"labels": ["a"], "frames": [60, 40]}',
    "zero_states": '{"labels": ["a"], "n_states": 0}',
    "negative_dim": '{"labels": ["a"], "dim": -1}',
    "one_token": '{"labels": ["a"], "tokens_per_condition": 1}',
    "separation_text": '{"labels": ["a"], "separation": "far"}',
    "separation_inf": '{"labels": ["a"], "separation": Infinity}',
    "negative_seed": '{"labels": ["a"], "seed": -1}',
    "fractional_seed": '{"labels": ["a"], "seed": 1.5}',
    "label_leaves_out": '{"labels": ["a", "../esc"]}',
}


class TestTrainCompareSynthFuzz:
    """train, compare and synth on broken corpora, reports and specs."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz-train")
        write_synth_spec(root / "spec.json")
        assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
        return root / "c"

    def _exits_cleanly(self, capsys, argv):
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (2, 3, 4), (code, err)
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        return err

    @pytest.mark.parametrize("breaker", BAD_TRAIN_INPUTS, ids=lambda f: f.__name__[1:])
    def test_train_bad_input_exits_cleanly(self, corpus, tmp_path, capsys, breaker):
        root = tmp_path / "c"
        shutil.copytree(corpus, root)
        too_large = breaker in (_frame_too_large_to_square, _squared_norm_overflows)
        with warnings.catch_warnings():
            if too_large:   # refused before any arithmetic can overflow
                warnings.simplefilter("error", RuntimeWarning)
            err = self._exits_cleanly(capsys, breaker(root))
        if breaker in NAMED_IN_TRAIN_ERROR:   # a DataError: exit 3
            assert f"error: {NAMED_IN_TRAIN_ERROR[breaker]}" in err, err

    def test_train_names_the_condition_short_of_frames(self, corpus, tmp_path, capsys):
        # two train tokens of three frames give b's first state 2 frames each,
        # 4 in all, fewer than the 6 components asked for; a has 40-60 a token
        root = tmp_path / "c"
        shutil.copytree(corpus, root)
        for tok in range(1, 10):
            (root / "features" / f"b_{tok:03d}.lpcc").write_bytes(_lpcc(np.zeros((3, 3))))
        capsys.readouterr()
        code = main(_train_args(root, "manifest.tsv", "--train-count", "2", "--mixtures", "6"))
        err = capsys.readouterr().err
        assert code == 3, err
        assert "condition 'b' state 0: 4 frames for 6 mixture components" in err, err

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_train_frame_one_state_cannot_emit(self, corpus, tmp_path, capsys, order):
        # With two components per state the flat start centres the state that
        # holds the frame at +9e153 near 4.5e153, and the frame at -9e153 lies
        # too far from that centre to square: that state scores it -inf, the
        # other state does not. Training counts the frame for the other state.
        root = tmp_path / "c"
        shutil.copytree(corpus, root)
        _set_frame(root, "a_001.lpcc", 2, 9e153)
        _set_frame(root, "a_001.lpcc", -3, -9e153)
        from hmm2tc.audio import load_features
        from hmm2tc.init import flat_start
        seqs = [load_features(p) for p in sorted((root / "features").glob("*.lpcc"))]
        flat = flat_start({"": seqs}, 1, 2, 2, "ergodic", 0)[0].emission_log_probs(seqs[0])[-3]
        assert sorted(np.isfinite(flat).tolist()) == [False, True]
        capsys.readouterr()
        code = main(_train_args(root, "manifest.tsv", "--order", order, "--mixtures", "2"))
        err = capsys.readouterr().err
        assert code == 0, err
        for model in (root / "bank" / "models").iterdir():
            doc = json.loads(model.read_text())
            assert np.all(np.isfinite(np.array([m["means"] for m in doc["mixtures"]])))

    @pytest.mark.parametrize("which", ["baseline", "new"])
    @pytest.mark.parametrize("content", BAD_REPORTS.values(), ids=BAD_REPORTS)
    def test_compare_bad_report_exits_3(self, tmp_path, capsys, which, content):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"labels": ["x"], "rates": [50.0]}))
        bad.write_bytes(content)
        files = [good, bad] if which == "new" else [bad, good]
        capsys.readouterr()
        assert main(["compare", *map(str, files)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(bad) in err

    @pytest.mark.parametrize("content", BAD_SPECS.values(), ids=BAD_SPECS)
    def test_synth_bad_spec_exits_cleanly(self, tmp_path, capsys, content):
        (tmp_path / "spec.json").write_text(content)
        self._exits_cleanly(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                     "--out", str(tmp_path / "c")])


class TestIdentifyScope:
    """identify's --speaker/--sentence against per-scope and pooled banks."""

    FEATURES = os.path.join("features", "a_006.lpcc")

    def _bank(self, capsys, corpus, out, *extra, manifest="manifest.tsv"):
        code, _, err = run(capsys, "train", "--manifest", str(corpus / manifest),
                           "--out", str(out), "--order", "1", "--states", "2",
                           "--mixtures", "1", "--topology", "ergodic", "--max-iter", "2",
                           *extra)
        assert code == 0, err
        return out

    def _identify(self, capsys, corpus, bank, *flags):
        return run(capsys, "identify", "--bank", str(bank),
                   "--features", str(corpus / self.FEATURES), *flags)

    @pytest.mark.parametrize("flags", [(), ("--speaker", "syn"), ("--sentence", "s1"),
                                       ("--speaker", "syn", "--sentence", "s1")])
    def test_one_scope_answers_for_its_own_pair(self, synth_corpus, tmp_path, capsys, flags):
        bank = self._bank(capsys, synth_corpus, tmp_path / "bank")
        code, out, err = self._identify(capsys, synth_corpus, bank, *flags)
        assert code == 0, err
        assert out.splitlines()[0] == "a"

    @pytest.mark.parametrize("flags", [("--speaker", "nobody", "--sentence", "nothing"),
                                       ("--speaker", "nobody"), ("--sentence", "nothing"),
                                       ("--speaker", "syn", "--sentence", "nothing")])
    def test_one_scope_rejects_another_pair(self, synth_corpus, tmp_path, capsys, flags):
        bank = self._bank(capsys, synth_corpus, tmp_path / "bank")
        code, out, err = self._identify(capsys, synth_corpus, bank, *flags)
        assert code == 3 and out == ""
        assert all(value in err for value in flags[1::2])

    def test_pooled_bank_answers_for_any_pair(self, synth_corpus, tmp_path, capsys):
        bank = self._bank(capsys, synth_corpus, tmp_path / "bank", "--pooled")
        code, out, err = self._identify(capsys, synth_corpus, bank,
                                        "--speaker", "nobody", "--sentence", "nothing")
        assert code == 0, err
        assert out.splitlines()[0] == "a"

    @pytest.fixture
    def two_scopes(self, synth_corpus, tmp_path, capsys):
        """A bank of two scopes, (syn, s1) and (other, s1), on the same features."""
        lines = (synth_corpus / "manifest.tsv").read_text().splitlines()
        twin = [line.replace("syn\t", "other\t", 1) for line in lines[1:]]
        (synth_corpus / "two.tsv").write_text("\n".join(lines + twin) + "\n")
        return self._bank(capsys, synth_corpus, tmp_path / "bank2", manifest="two.tsv")

    @pytest.mark.parametrize("speaker", ["syn", "other"])
    def test_two_scopes_answer_for_each_pair(self, synth_corpus, two_scopes, capsys, speaker):
        code, out, err = self._identify(capsys, synth_corpus, two_scopes,
                                        "--speaker", speaker, "--sentence", "s1")
        assert code == 0, err
        assert out.splitlines()[0] == "a"

    def test_two_scopes_name_the_pair_that_matches_none(self, synth_corpus, two_scopes,
                                                        capsys):
        code, out, err = self._identify(capsys, synth_corpus, two_scopes,
                                        "--speaker", "nobody", "--sentence", "s1")
        assert code == 3 and out == ""
        assert "nobody" in err and "pass --speaker" not in err

    def test_two_scopes_need_the_pair(self, synth_corpus, two_scopes, capsys):
        code, out, err = self._identify(capsys, synth_corpus, two_scopes)
        assert code == 3 and out == ""
        assert "--speaker" in err


class TestFailedTrain:
    """A train that fails partway leaves the old bank whole, or no bank.json:
    identify and evaluate never read a mix of two runs' models."""

    @pytest.fixture
    def two_scopes(self, synth_corpus):
        """A two-scope manifest, (syn, s1) then (twin, s1), whose second scope
        reads its first training file from a copy of its own."""
        lines = (synth_corpus / "manifest.tsv").read_text().splitlines()
        twin = [line.replace("syn\t", "twin\t", 1) for line in lines[1:]]
        twin[0] = twin[0].replace("a_001.lpcc", "twin_a_001.lpcc")
        shutil.copy(synth_corpus / "features" / "a_001.lpcc",
                    synth_corpus / "features" / "twin_a_001.lpcc")
        (synth_corpus / "two.tsv").write_text("\n".join(lines + twin) + "\n")
        return synth_corpus

    def _train(self, capsys, corpus, bank, seed):
        return run(capsys, "train", "--manifest", str(corpus / "two.tsv"), "--out", str(bank),
                   "--order", "2", "--states", "2", "--mixtures", "2", "--topology",
                   "ergodic", "--max-iter", "2", "--seed", str(seed))

    def _identify(self, capsys, corpus, bank, speaker):
        return run(capsys, "identify", "--bank", str(bank), "--speaker", speaker,
                   "--features", str(corpus / "features" / "a_006.lpcc"))

    def test_a_scope_that_fails_to_train_leaves_the_old_bank(self, two_scopes, tmp_path,
                                                              capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, two_scopes, bank, seed=1)[0] == 0
        before = [self._identify(capsys, two_scopes, bank, who) for who in ("syn", "twin")]
        short = two_scopes / "features" / "twin_a_001.lpcc"
        short.write_bytes(_lpcc(load_features(short).frames[:1]))
        code, _, err = self._train(capsys, two_scopes, bank, seed=2)
        assert code == 3 and "T = 1" in err
        after = [self._identify(capsys, two_scopes, bank, who) for who in ("syn", "twin")]
        assert before[0][0] == 0 and after == before

    def test_a_failed_write_leaves_no_bank_to_read(self, two_scopes, tmp_path, capsys,
                                                   monkeypatch):
        bank = tmp_path / "bank"
        assert self._train(capsys, two_scopes, bank, seed=1)[0] == 0
        calls = []

        def second_call_fails(models, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(f"{path}: no space left on device")
            return save_pack(models, path)

        monkeypatch.setattr(cli, "save_pack", second_call_fails)
        code, _, err = self._train(capsys, two_scopes, bank, seed=2)
        assert code == 3 and "no space left" in err and len(calls) == 2
        for who in ("syn", "twin"):
            code, out, _ = self._identify(capsys, two_scopes, bank, who)
            assert code == 3 and out == ""
        code, _, _ = run(capsys, "evaluate", "--manifest", str(two_scopes / "two.tsv"),
                         "--bank", str(bank), "--out", str(tmp_path / "report"))
        assert code == 3


def _edit_bank_json(edit):
    """A breaker that edits a bank directory's bank.json in place."""
    def breaker(bank):
        doc = json.loads((bank / "bank.json").read_text())
        edit(doc)
        (bank / "bank.json").write_text(json.dumps(doc))
    return breaker


def _first_pack(bank):
    return bank / json.loads((bank / "bank.json").read_text())["scopes"][0]["packed"]["path"]


def _reformatted_model(bank):
    # the same numbers in other bytes: the record's digest for it is stale
    scope = json.loads((bank / "bank.json").read_text())["scopes"][0]
    path = bank / scope["models"][scope["labels"][0]]
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))


def _truncated_pack(bank):
    _first_pack(bank).write_bytes(_first_pack(bank).read_bytes()[:-8])


def _bit_flipped_pack(bank):
    data = bytearray(_first_pack(bank).read_bytes())
    data[100] ^= 1
    _first_pack(bank).write_bytes(data)


def _no_pack_dir(bank):
    shutil.rmtree(bank / "packed")


def _records(edit):
    return _edit_bank_json(lambda doc: [edit(scope) for scope in doc["scopes"]])


# each makes a trained bank's packs unusable, so that its models load from
# their JSON files (bank directory) -> None
UNUSABLE_PACKS = {
    "edited_model_file": _reformatted_model,
    "truncated_pack": _truncated_pack,
    "bit_flipped_pack": _bit_flipped_pack,
    "no_pack_dir": _no_pack_dir,
    "no_record": _records(lambda scope: scope.pop("packed")),
    "record_not_an_object": _records(lambda scope: scope.update(packed=["packed"])),
    "path_not_a_string": _records(lambda scope: scope["packed"].update(path=7)),
    "path_a_directory": _records(lambda scope: scope["packed"].update(path="models")),
    "path_with_nul": _records(lambda scope: scope["packed"].update(path="packed/\0")),
    "pack_digest_missing": _records(lambda scope: scope["packed"].pop("sha256")),
    "model_digest_missing": _records(
        lambda scope: scope["packed"].update(model_sha256=scope["packed"]["model_sha256"][1:])),
    "bank_n_off": _edit_bank_json(lambda doc: doc.update(N=doc["N"] + 1)),
    "bank_m_not_a_number": _edit_bank_json(lambda doc: doc.update(M="2")),
}


def _reversed_labels(scope):
    scope["labels"].reverse()


def _swapped_models(scope):
    first, second = scope["labels"][:2]
    models = scope["models"]
    models[first], models[second] = models[second], models[first]


class TestPackedBank:
    """train writes one pack of model arrays per scope beside the model files,
    and identify and evaluate read a pack only when its record vouches for
    it: what a bank says never depends on whether a pack is read."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        """A synthetic corpus and a manifest of two scopes, (syn, s1) and
        (other, s1), on its features."""
        root = tmp_path_factory.mktemp("packed")
        write_synth_spec(root / "spec.json", n_components=2)
        assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
        lines = (root / "c" / "manifest.tsv").read_text().splitlines()
        twin = [line.replace("syn\t", "other\t", 1) for line in lines[1:]]
        (root / "c" / "two.tsv").write_text("\n".join(lines + twin) + "\n")
        return root / "c"

    def _train(self, corpus, out, order=2, topology="left-right"):
        assert main(["train", "--manifest", str(corpus / "two.tsv"), "--out", str(out),
                     "--order", str(order), "--states", "3", "--mixtures", "2",
                     "--topology", topology, "--max-iter", "2"]) == 0
        return out

    @pytest.fixture(scope="class")
    def bank(self, corpus, tmp_path_factory):
        return self._train(corpus, tmp_path_factory.mktemp("bank") / "bank")

    def _outputs(self, corpus, bank, out, capsys):
        """identify's stdout in each scope, and evaluate's report.json."""
        results = []
        for speaker in ("syn", "other"):
            code, text, err = run(capsys, "identify", "--bank", str(bank), "--features",
                                  str(corpus / "features" / "b_007.lpcc"),
                                  "--speaker", speaker, "--sentence", "s1")
            assert code == 0, err
            results.append(text)
        code, _, err = run(capsys, "evaluate", "--manifest", str(corpus / "two.tsv"),
                           "--bank", str(bank), "--out", str(out))
        assert code == 0, err
        return results + [(out / "report.json").read_bytes()]

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The model files that the CLI parses as JSON, in order."""
        paths = []

        def spy(path, data=None):
            paths.append(path)
            return load_model(path, data)
        monkeypatch.setattr(cli, "load_model", spy)
        return paths

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("topology", ["ergodic", "left-right"])
    def test_pack_holds_the_model_files_arrays(self, corpus, tmp_path, parsed, order,
                                               topology):
        bank = self._train(corpus, tmp_path / "bank", order, topology)
        doc = cli._load_bank_doc(bank)
        assert sorted(os.listdir(bank / "packed")) == ["other_s1.f8", "syn_s1.f8"]
        for scope in doc["scopes"]:
            assert sorted(scope["packed"]) == ["model_sha256", "path", "sha256"]
            packed = cli._load_bank(str(bank), doc, scope).models
            assert parsed == []
            for lab, rel in scope["models"].items():
                want, got = load_model(bank / rel), packed[lab]
                assert (got.order, got.topology) == (want.order, want.topology) \
                    == (order, topology)
                for name in (*want._ARRAYS, "weights", "means", "variances"):
                    owner = (want, got) if hasattr(want, name) else (want.mixtures, got.mixtures)
                    a, b = (getattr(x, name) for x in owner)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (lab, name)

    def test_train_writes_the_same_packs_twice(self, corpus, tmp_path, bank):
        again = self._train(corpus, tmp_path / "again")
        for rel in ("bank.json", "packed/syn_s1.f8", "packed/other_s1.f8"):
            assert (bank / rel).read_bytes() == (again / rel).read_bytes()

    @pytest.mark.parametrize("breaker", UNUSABLE_PACKS.values(), ids=UNUSABLE_PACKS)
    def test_unusable_pack_reads_the_json(self, corpus, bank, tmp_path, capsys, parsed,
                                          breaker):
        want = self._outputs(corpus, bank, tmp_path / "packed", capsys)
        assert parsed == []
        broken = tmp_path / "bank"
        shutil.copytree(bank, broken)
        breaker(broken)
        assert self._outputs(corpus, broken, tmp_path / "json", capsys) == want
        assert parsed

    @pytest.mark.parametrize("edit", [_reversed_labels, _swapped_models],
                             ids=lambda f: f.__name__[1:])
    def test_scope_edits_read_as_the_json_says(self, corpus, bank, tmp_path, capsys,
                                               monkeypatch, edit):
        # the record lists the model digests in label order, so the pack is
        # not read once labels or model files change places
        edited = tmp_path / "bank"
        shutil.copytree(bank, edited)
        _records(edit)(edited)
        got = self._outputs(corpus, edited, tmp_path / "a", capsys)
        monkeypatch.setattr(cli, "load_pack", lambda *args: pytest.fail("pack read"))
        _records(lambda scope: scope.pop("packed"))(edited)
        assert self._outputs(corpus, edited, tmp_path / "b", capsys) == got

    @pytest.mark.parametrize("command", ["identify", "evaluate"])
    @pytest.mark.parametrize("unreadable", ["missing", "not_utf8"])
    def test_unreadable_model_file_exits_3(self, corpus, bank, tmp_path, capsys, command,
                                           unreadable):
        broken = tmp_path / "bank"
        shutil.copytree(bank, broken)
        scope = json.loads((broken / "bank.json").read_text())["scopes"][0]
        path = os.path.join(str(broken), scope["models"]["a"])
        if unreadable == "missing":
            os.remove(path)
            message = f"error: [Errno 2] No such file or directory: {path!r}\n"
        else:
            with open(path, "wb") as fh:
                fh.write(b"\xff\xfe\x00\x01")
            message = (f"error: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")
        if command == "identify":
            argv = ["identify", "--bank", str(broken), "--speaker", scope["speaker"],
                    "--features", str(corpus / "features" / "b_007.lpcc")]
        else:
            argv = ["evaluate", "--manifest", str(corpus / "two.tsv"), "--bank", str(broken),
                    "--out", str(tmp_path / "rep")]
        assert run(capsys, *argv) == (3, "", message)


# A seeded fuzz of packs and of bank.json's "packed" records: each case
# mutates the pack's bytes or one field of the record (or a bank.json field
# that gives the pack's layout). A mutated pack is re-digested in most
# cases, and its values are then written into the model files too, so that
# the pack and the model files say the same; a pack whose size changed is
# re-digested alone, and its size fits no layout.

SPECIAL_VALUES = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 0.5, 1.0, -7.25,
                  1e154, 1e308, -1e308, 1e-320, 5e-324]


def _set_values(rng, data):
    values = np.frombuffer(data, dtype="<f8").copy()
    idx = rng.integers(0, len(values), rng.integers(1, 4))
    values[idx] = rng.choice(SPECIAL_VALUES, len(idx))
    return values.tobytes()


def _flip_bits(rng, data):
    raw = bytearray(data)
    for i in rng.integers(0, len(raw), rng.integers(1, 4)):
        raw[i] ^= 1 << int(rng.integers(0, 8))
    return bytes(raw)


def _resize(rng, data):
    delta = int(rng.integers(1, 16))   # a pack of 2 x 2 models holds 64 bytes per dimension
    if rng.random() < 0.5:
        return data[:-delta]
    return data + rng.integers(0, 256, delta, dtype=np.uint8).tobytes()


def _docs_from_pack(data, docs):
    """The model documents with their arrays read from the pack's bytes,
    in the pack's layout."""
    values = iter(np.frombuffer(data, dtype="<f8").tolist())

    def take(like):
        if isinstance(like, list):
            return [take(x) for x in like]
        return next(values)
    out = []
    for doc in docs:
        doc = json.loads(json.dumps(doc))
        for key in ("psi", "a2", "a3")[:doc["order"] + 1]:
            doc[key] = take(doc[key])
        for part in ("weights", "means", "variances"):
            for state, new in zip(doc["mixtures"], take([s[part] for s in doc["mixtures"]])):
                state[part] = new
        out.append(doc)
    return out


RECORD_VALUES = {
    "path": ["", "packed", "models", "bank.json", "packed/../bank.json", "/dev/null",
             "packed/\0", "nope.f8", 7, None, ["packed"]],
    "sha256": [None, 5, "", "0" * 64, "sha256"],
    "model_sha256": [None, "digests", [], [5]],
}
BANK_VALUES = {
    "N": [0, -1, 1, 3, 4, "2", None, 2.0, True],
    "M": [0, 1, 3, 4, "2", None, 2.0, True],
    "order": [0, 1, 3, "2", None, 2.0, True],
    "topology": ["ergodic", "left-right", "up-down", None, 2],
}


def _edit_record(rng, doc, record):
    """One field of the record, or of the bank's layout, set to an odd
    value, a digest changed in one place, or the record replaced."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        key = str(rng.choice(list(RECORD_VALUES)))
        record[key] = RECORD_VALUES[key][int(rng.integers(0, len(RECORD_VALUES[key])))]
    elif kind == 1:
        key = str(rng.choice(list(BANK_VALUES)))
        doc[key] = BANK_VALUES[key][int(rng.integers(0, len(BANK_VALUES[key])))]
    elif kind == 2:
        digests = record["model_sha256"]
        edits = [digests[::-1], digests[1:] + digests[:1], digests[1:], digests + digests[:1],
                 [digests[0].upper()] + digests[1:]]
        record["model_sha256"] = edits[int(rng.integers(0, len(edits)))]
    elif kind == 3:
        digest = record["sha256"]
        at = int(rng.integers(0, len(digest)))
        record["sha256"] = digest[:at] + ("0" if digest[at] != "0" else "1") + digest[at + 1:]
    else:
        doc["scopes"][0]["packed"] = [None, [], "packed", {}, 0][int(rng.integers(0, 5))]


class TestPackFuzz:
    """identify on a bank whose pack or record was mutated exits 0, 3 or 4,
    with no traceback (and no RuntimeWarning, an error under this suite),
    and prints what the same bank prints without its record, from its model
    files alone."""

    CASES = 240

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        write_synth_spec(root / "spec.json", frames=[20, 30])
        assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
        assert main(["train", "--manifest", str(root / "c" / "manifest.tsv"), "--out",
                     str(root / "bank"), "--states", "2", "--mixtures", "2", "--order", "2",
                     "--topology", "left-right", "--max-iter", "2", "--pooled"]) == 0
        return root

    def test_mutated_pack_or_record_reads_as_the_model_files_say(self, trained, tmp_path,
                                                                  capsys):
        bank = tmp_path / "bank"
        shutil.copytree(trained / "bank", bank)
        doc = json.loads((bank / "bank.json").read_text())
        scope = doc["scopes"][0]
        paths = [bank / scope["models"][lab] for lab in scope["labels"]]
        pack = bank / scope["packed"]["path"]
        pristine = {path: path.read_bytes() for path in (*paths, pack)}
        docs = [json.loads(pristine[path]) for path in paths]
        argv = ["identify", "--bank", str(bank), "--features",
                str(trained / "c" / "features" / "a_006.lpcc")]
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([23, case])
            for path, data in pristine.items():
                path.write_bytes(data)
            mutated = json.loads(json.dumps(doc))
            record = mutated["scopes"][0]["packed"]
            if case % 2:
                _edit_record(rng, mutated, record)
            else:
                mutate = (_set_values, _flip_bits, _resize)[case // 2 % 3]
                data = mutate(rng, pristine[pack])
                pack.write_bytes(data)
                if mutate is _resize or rng.random() < 0.75:
                    record["sha256"] = hashlib.sha256(data).hexdigest()
                if mutate is not _resize and record["sha256"] != scope["packed"]["sha256"]:
                    for path, model_doc in zip(paths, _docs_from_pack(data, docs)):
                        path.write_text(json.dumps(model_doc))
                    record["model_sha256"] = [hashlib.sha256(path.read_bytes()).hexdigest()
                                              for path in paths]
            (bank / "bank.json").write_text(json.dumps(mutated))
            got = run(capsys, *argv)
            mutated["scopes"][0].pop("packed")
            (bank / "bank.json").write_text(json.dumps(mutated))
            want = run(capsys, *argv)
            assert got == want, case
            assert got[0] in (0, 3, 4) and "Traceback" not in got[2], (case, got)
            codes.append(got[0])
        assert {0, 3} <= set(codes)


# Seeded byte-level fuzz of a trained bank's bank.json and of one of its
# model files, and of a corpus manifest: each case runs the CLI on one
# mutated file, with RuntimeWarning an error.

JSON_BYTES = b'0123456789.-+eE,:[]{}" \nNa'


def _mutated_bytes(rng, data: bytes) -> bytes:
    """One of five faults: bit flips, bytes set to characters that JSON
    gives a meaning, a span deleted, a span repeated, or a truncation."""
    kind = int(rng.integers(5))
    if kind == 0:
        return _flip_bits(rng, data)
    raw = bytearray(data)
    at = int(rng.integers(len(raw)))
    span = int(rng.integers(1, 64))
    if kind == 1:
        for i in rng.integers(0, len(raw), rng.integers(1, 4)):
            raw[i] = JSON_BYTES[int(rng.integers(len(JSON_BYTES)))]
    elif kind == 2:
        del raw[at:at + span]
    elif kind == 3:
        raw[at:at] = raw[at:at + span]
    else:
        del raw[at:]
    return bytes(raw)


def _mutated_manifest(rng, data: bytes) -> bytes:
    """One of five faults: bit flips, a tab or a NUL inserted, a line
    repeated (half the time under a token of its own, which keeps its key
    unique), or a truncation (half the time at a line's end)."""
    kind = int(rng.integers(5))
    if kind == 0:
        return _flip_bits(rng, data)
    raw = bytearray(data)
    at = int(rng.integers(len(raw)))
    if kind in (1, 2):
        raw[at:at] = b"\t" if kind == 1 else b"\0"
    elif kind == 3:
        lines = data.splitlines(keepends=True)
        cells = lines[int(rng.integers(len(lines)))].split(b"\t")
        if rng.random() < 0.5 and len(cells) > 4:   # the corpus manifest's token column
            cells[4] = b"%d" % rng.integers(10, 100)
        lines.insert(int(rng.integers(len(lines) + 1)), b"\t".join(cells))
        raw = b"".join(lines)
    else:
        del raw[data.rfind(b"\n", 0, at) + 1 if rng.random() < 0.5 else at:]
    return bytes(raw)


def _exits_cleanly(capsys, argv):
    """main's exit code on argv, which must be 0, 2, 3 or 4 with no
    traceback and no RuntimeWarning."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code, err)
    assert "nan" not in out.lower(), (argv, out)
    return code


FUZZ_TOPOLOGIES = {1: "ergodic", 2: "left-right"}


@pytest.fixture(scope="module")
def fuzz_banks(tmp_path_factory):
    """A small corpus, a two-utterance test manifest on it, and a pooled
    bank of each order in FUZZ_TOPOLOGIES trained on it."""
    root = tmp_path_factory.mktemp("fuzz-files")
    write_synth_spec(root / "spec.json", frames=[20, 30])
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "c")]) == 0
    for order, topology in FUZZ_TOPOLOGIES.items():
        assert main(["train", "--manifest", str(root / "c" / "manifest.tsv"), "--out",
                     str(root / f"bank{order}"), "--states", "2", "--mixtures", "2",
                     "--order", str(order), "--topology", topology, "--max-iter", "2",
                     "--pooled"]) == 0
    (root / "c" / "test.tsv").write_text(
        "speaker\tsentence\tcondition\ttoken\tsplit\tpath\n"
        "s\tt\ta\t1\ttest\tfeatures/a_006.lpcc\ns\tt\tb\t1\ttest\tfeatures/b_006.lpcc\n")
    return root


class TestBankFileFuzz:
    """identify, with forward and Viterbi scoring, and evaluate on a bank
    whose bank.json or first model file had its bytes mutated."""

    CASES = 150   # per bank

    @pytest.mark.parametrize("order", list(FUZZ_TOPOLOGIES))
    def test_mutated_bank_file_exits_cleanly(self, fuzz_banks, tmp_path, capsys, order):
        bank = tmp_path / "bank"
        shutil.copytree(fuzz_banks / f"bank{order}", bank)
        scope = json.loads((bank / "bank.json").read_text())["scopes"][0]
        targets = [bank / "bank.json", bank / scope["models"][scope["labels"][0]]]
        pristine = {path: path.read_bytes() for path in targets}
        utterance = fuzz_banks / "c" / "features" / "a_006.lpcc"
        commands = [["identify", "--bank", str(bank), "--features", str(utterance),
                     "--scoring", scoring] for scoring in ("forward", "viterbi")]
        commands.append(["evaluate", "--manifest", str(fuzz_banks / "c" / "test.tsv"),
                         "--bank", str(bank), "--out", str(tmp_path / "rep")])
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([31, order, case])
            for path, data in pristine.items():
                path.write_bytes(data)
            target = targets[case % 2]
            target.write_bytes(_mutated_bytes(rng, pristine[target]))
            codes += [_exits_cleanly(capsys, argv) for argv in commands]
        assert {0, 3} <= set(codes)


class TestManifestFuzz:
    """train, at both orders, and evaluate on a mutated corpus manifest."""

    CASES = 150

    def test_mutated_manifest_exits_cleanly(self, fuzz_banks, tmp_path, capsys):
        corpus = tmp_path / "c"
        shutil.copytree(fuzz_banks / "c", corpus)
        manifest = corpus / "manifest.tsv"
        pristine = manifest.read_bytes()
        split = ["--train-count", "3", "--test-count", "2"]   # 5 of each group's 9 tokens
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([37, case])
            manifest.write_bytes(_mutated_manifest(rng, pristine))
            order = 1 + case % 2
            codes.append(_exits_cleanly(capsys, [
                "train", "--manifest", str(manifest), "--out", str(tmp_path / "bank"),
                "--states", "2", "--mixtures", "1", "--order", str(order),
                "--topology", FUZZ_TOPOLOGIES[order], "--max-iter", "1", "--pooled", *split]))
            codes.append(_exits_cleanly(capsys, [
                "evaluate", "--manifest", str(manifest), "--bank",
                str(fuzz_banks / f"bank{order}"), "--out", str(tmp_path / "rep"), *split]))
        assert {0, 3} <= set(codes)


# doubles that the feature fuzz writes over one value: non-finite, at the
# ends of the range, subnormal, and large enough that a square or a product
# overflows
SPECIAL_DOUBLES = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, 1e154, 1.4e154]


def _mutated_features(rng, data: bytes) -> bytes:
    """One of six faults of a feature file: bit flips, one value set to a
    special double, the header's T or D rewritten, every frame made equal to
    the first, a truncation, or bytes appended."""
    kind = int(rng.integers(6))
    if kind == 0:
        return _flip_bits(rng, data)
    raw = bytearray(data)
    values = (len(raw) - 13) // 8
    if kind == 1:
        at = 13 + 8 * int(rng.integers(values))
        raw[at:at + 8] = struct.pack("<d", SPECIAL_DOUBLES[int(rng.integers(len(SPECIAL_DOUBLES)))])
    elif kind == 2:
        size = rng.choice([0, 1, 2, 3, 4, 0xFFFFFFFF, int(rng.integers(2**32))])
        at = 5 + 4 * int(rng.integers(2))
        raw[at:at + 4] = struct.pack("<I", size)
    elif kind == 3:
        dim = struct.unpack_from("<I", data, 9)[0]
        frame = raw[13:13 + 8 * dim]
        raw[13:] = frame * (values // dim)
    elif kind == 4:
        del raw[rng.integers(len(raw)):]
    else:
        raw += rng.bytes(int(rng.integers(1, 64)))
    return bytes(raw)


class TestFeatureFileFuzz:
    """identify, with forward and Viterbi scoring, on a feature file whose
    bytes were mutated, against each bank of `fuzz_banks` in turn."""

    CASES = 150

    def test_mutated_feature_file_exits_cleanly(self, fuzz_banks, tmp_path, capsys):
        pristine = (fuzz_banks / "c" / "features" / "a_006.lpcc").read_bytes()
        feat = tmp_path / "u.lpcc"
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([41, case])
            feat.write_bytes(_mutated_features(rng, pristine))
            bank = fuzz_banks / f"bank{1 + case % 2}"
            codes += [_exits_cleanly(capsys, ["identify", "--bank", str(bank), "--features",
                                              str(feat), "--scoring", scoring])
                      for scoring in ("forward", "viterbi")]
        assert set(codes) <= {0, 3, 4} and {0, 3} <= set(codes), sorted(set(codes))


def _constant_or_mutated_features(rng, data: bytes) -> bytes:
    """One case in seven, a frame or a column of a feature file set to one
    constant (0, 1 or a special double); otherwise `_mutated_features`."""
    if rng.random() >= 1 / 7:
        return _mutated_features(rng, data)
    t, d = struct.unpack_from("<II", data, 5)
    frames = np.frombuffer(data, dtype="<f8", offset=13).reshape(t, d).copy()
    value = [0.0, 1.0, *SPECIAL_DOUBLES][int(rng.integers(len(SPECIAL_DOUBLES) + 2))]
    if rng.random() < 0.5:
        frames[rng.integers(t)] = value
    else:
        frames[:, rng.integers(d)] = value
    return data[:13] + frames.tobytes()


def _strict_json(path):
    """The JSON document in a file, refusing NaN and Infinity."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestTrainFeatureFuzz:
    """train, at order 1 (ergodic) and order 2 (left-right) in turn, on a
    corpus one of whose training feature files was mutated."""

    CASES = 150

    def test_mutated_training_file_exits_cleanly(self, fuzz_banks, tmp_path, capsys):
        corpus, out = tmp_path / "c", tmp_path / "bank"
        shutil.copytree(fuzz_banks / "c", corpus)
        feat = corpus / "features" / "a_001.lpcc"
        pristine = feat.read_bytes()
        codes = []
        for case in range(self.CASES):
            rng = np.random.default_rng([43, case])
            feat.write_bytes(_constant_or_mutated_features(rng, pristine))
            shutil.rmtree(out, ignore_errors=True)
            order = 1 + case % 2
            codes.append(_exits_cleanly(capsys, [
                "train", "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
                "--states", "2", "--mixtures", "2", "--order", str(order),
                "--topology", FUZZ_TOPOLOGIES[order], "--max-iter", "2", "--pooled"]))
            for path in out.rglob("*.json"):
                _strict_json(path)
        assert set(codes) == {0, 3}, sorted(set(codes))


# A valid spec whose sizes are all at most 12, and the values a mutation puts
# in place of a field: every integer among them is at most 1 or past the
# 2**48 bound, so no spec that synth accepts allocates much or writes many
# files.
FUZZ_SPEC = {"labels": ["a", "b"], "tokens_per_condition": 3, "frames": [4, 8], "n_states": 2,
             "n_components": 2, "dim": 2, "separation": 4.0, "seed": 3}
EDGE_LABELS = ["a\tb", "a\nb", "a\0b", "a/b"]
SPEC_EDGE_VALUES = [0, 1, -1, 1.5, True, None, "x", [], 2**48 + 1, 10**20, *EDGE_LABELS]
# frames (80-200) and dim (16) are left out: their defaults are past the bound
DROPPABLE_SPEC_FIELDS = ["labels", "tokens_per_condition", "n_states", "n_components",
                         "separation", "seed"]


def _mutated_spec(rng) -> dict:
    """FUZZ_SPEC with one or two faults: a field dropped, a field retyped (to
    text, a float or a one-item list), an edge value in place of a field, of
    a label or of one end of frames, or an edge label in place of a label."""
    spec = json.loads(json.dumps(FUZZ_SPEC))
    for _ in range(int(rng.integers(1, 3))):
        kind, name = int(rng.integers(4)), str(rng.choice(sorted(spec)))
        value = SPEC_EDGE_VALUES[int(rng.integers(len(SPEC_EDGE_VALUES)))]
        if kind == 3:
            name, value = "labels", EDGE_LABELS[int(rng.integers(len(EDGE_LABELS)))]
        if kind == 0:
            spec.pop(str(rng.choice(DROPPABLE_SPEC_FIELDS)), None)
        elif kind == 1:
            spec[name] = [str(spec[name]), float(spec[name]) if _is_number(spec[name]) else 0.5,
                          [spec[name]]][int(rng.integers(3))]
        elif name in ("labels", "frames") and isinstance(spec.get(name), list) and spec[name]:
            spec[name][int(rng.integers(len(spec[name])))] = value
        else:
            spec[name] = value
    return spec


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class TestSynthSpecFuzz:
    """synth on a mutated spec, then train on whatever synth wrote: each exits
    0, 2 or 3 with no traceback, and a manifest that synth writes reads back
    with the spec's labels."""

    CASES = 200

    def test_mutated_spec_exits_cleanly_and_writes_what_train_reads(self, tmp_path, capsys):
        codes = []
        for case in range(self.CASES):
            spec = _mutated_spec(np.random.default_rng([31, case]))
            corpus, bank = tmp_path / f"c{case}", tmp_path / f"bank{case}"
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            code = _exits_cleanly(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                           "--out", str(corpus)])
            assert code in (0, 2, 3), (case, spec, code)
            codes.append(code)
            if code != 0:
                continue
            entries = parse_manifest((corpus / "manifest.tsv").read_text(encoding="utf-8"))
            assert {e.condition for e in entries} == set(spec["labels"]), (case, spec)
            code = _exits_cleanly(capsys, [
                "train", "--manifest", str(corpus / "manifest.tsv"), "--out", str(bank),
                "--order", "2", "--states", "2", "--mixtures", "1", "--topology", "ergodic",
                "--max-iter", "2", "--train-count", "2", "--test-count", "0"])
            assert code in (0, 2, 3), (case, spec, code)
            shutil.rmtree(corpus)
            shutil.rmtree(bank, ignore_errors=True)
        assert {0, 3} <= set(codes)


def _extract_args(root, *options):
    (root / "wavs.tsv").write_text("speaker\tsentence\tcondition\ttoken\tpath\n"
                                   "s1\tt1\tneutral\t1\tu.wav\n")
    return ["extract", "--manifest", str(root / "wavs.tsv"), "--out", str(root / "feat"),
            *options]


def _identify_args(root, features=None):
    return ["identify", "--bank", str(root / "bank"), "--features",
            str(features or root / "c" / "features" / "a_006.lpcc")]


def _features_with(root, data: bytes):
    (root / "u.lpcc").write_bytes(data)
    return _identify_args(root, root / "u.lpcc")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_scope(root, edit):
    _edit_json(root / "bank" / "bank.json", lambda doc: edit(doc["scopes"][0]))
    return _identify_args(root)


def _model_path(root, label):
    scope = json.loads((root / "bank" / "bank.json").read_text())["scopes"][0]
    return root / "bank" / scope["models"][label]


def _edit_model(root, edit):
    _edit_json(_model_path(root, "b"), edit)
    return _identify_args(root)


def _three_state_model(root):
    seqs = [load_features(root / "c" / "features" / f"b_00{i}.lpcc") for i in range(1, 6)]
    save_model(flat_start({"b": seqs}, 2, 3, 2, "left-right")[0], _model_path(root, "b"))
    return _identify_args(root)


def _wider_variances(doc):
    for state in doc["mixtures"]:
        state["variances"] = [row + [1.0] for row in state["variances"]]


def _untrained_scope(root):
    corpus = root / "c"
    assert main(["train", "--manifest", str(corpus / "manifest.tsv"), "--out",
                 str(root / "scoped"), "--states", "1", "--mixtures", "1", "--order", "1",
                 "--max-iter", "1"]) == 0
    (corpus / "other.tsv").write_text("speaker\tsentence\tcondition\ttoken\tsplit\tpath\n"
                                      "other\ts1\ta\t6\ttest\tfeatures/a_006.lpcc\n")
    return ["evaluate", "--manifest", str(corpus / "other.tsv"), "--bank", str(root / "scoped"),
            "--out", str(root / "rep")]


def _empty_manifest_path(root):
    _rewrite_manifest(root / "c", lambda ln: ln.replace("features/a_002.lpcc", ""))
    return _train_args(root / "c")


def _wav_extract_args(root, edit, *options):
    rng = np.random.default_rng(6)
    wav = make_wav_bytes((rng.normal(0, 0.05, 4800) * 32767).astype(np.int16))
    (root / "u.wav").write_bytes(edit(wav))
    return _extract_args(root, *options)


def _huge_synth_states(root):
    # 10**14 states ask for 728 TiB, past any process's address space: 10**12
    # would ask for 7.3 TiB, which a system that overcommits may grant and fill
    write_synth_spec(root / "spec.json", n_states=10 ** 14)
    return ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "s")]


def _synth_args(root, **overrides):
    write_synth_spec(root / "spec.json", **overrides)
    return ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "s")]


HUGE = 10 ** 20   # past int64, and past the bound on every size field
SYNTH_PAST_THE_BOUND = {"synth_n_states_10_20": {"n_states": HUGE},
                        "synth_n_components_10_20": {"n_components": HUGE},
                        "synth_dim_10_20": {"dim": HUGE},
                        "synth_frames_10_20": {"frames": [HUGE, HUGE]},
                        "synth_tokens_per_condition_10_20": {"tokens_per_condition": HUGE}}


def _duplicate_synth_labels(root):
    write_synth_spec(root / "spec.json", labels=["a", "a"])
    return ["synth", "--spec", str(root / "spec.json"), "--out", str(root / "s")]


# each writes a fault into root, which holds a copy of the fuzz corpus (c) and
# of its order-2 bank (bank), and returns the hmm2tc arguments that must exit
# 3 with the message beside it
ERROR_BRANCHES = {
    "shift_over_window": (lambda root: _extract_args(root, "--shift-ms", "40"),
                          "shift_ms must not exceed window_ms"),
    "pre_emphasis_one": (lambda root: _extract_args(root, "--pre-emphasis", "1.0"),
                         "pre_emphasis must lie in [0, 1)"),
    "feature_file_of_8_bytes": (lambda root: _features_with(root, b"LPCC\x01\0\0\0"),
                                "truncated header"),
    "feature_format_version_2": (lambda root: _features_with(root, _lpcc(np.zeros((4, 3)))
                                                             .replace(b"LPCC\x01", b"LPCC\x02")),
                                 "unsupported feature format version 2"),
    "empty_manifest_path": (_empty_manifest_path, "manifest entry path must be nonempty"),
    "duplicate_synth_labels": (_duplicate_synth_labels, "labels must be nonempty and unique"),
    "model_order_3": (lambda root: _edit_model(root, lambda doc: doc.update(order=3)),
                      "unsupported model order 3"),
    "duplicate_bank_labels": (lambda root: _edit_scope(root, lambda s: s.update(labels=["a", "a"])),
                              "bank labels must be nonempty and unique"),
    "scope_without_a_model": (lambda root: _edit_scope(root, lambda s: s["models"].pop("b")),
                              "bank labels and models must correspond"),
    "model_of_three_states": (_three_state_model, "bank models must share order, N, M and D"),
    "variances_wider_than_means": (lambda root: _edit_model(root, _wider_variances),
                                   "means and variances must have matching shapes"),
    "untrained_scope": (_untrained_scope, "no trained bank for scope ('other', 's1')"),
    # a WAV without a data chunk, cut off before it or with it renamed
    "wav_data_chunk_cut_off": (lambda root: _wav_extract_args(root, lambda wav: wav[:36]),
                               "malformed or non-PCM WAV file"),
    "wav_data_chunk_renamed": (lambda root: _wav_extract_args(
        root, lambda wav: wav.replace(b"data", b"junk", 1)), "malformed or non-PCM WAV file"),
    # sizes no machine holds: train refuses the state count before it
    # allocates, and the others end in a MemoryError that `main` reports
    "train_huge_state_count": (lambda root: _train_args(root / "c", "manifest.tsv",
                                                        "--states", "1000000000000"),
                               "condition 'a': 126 frames for 1000000000000 states"),
    "extract_huge_cepstral_order": (lambda root: _wav_extract_args(
        root, lambda wav: wav, "--cepstral-order", "1000000000000"), "error: out of memory: "),
    "synth_huge_state_count": (_huge_synth_states, "error: out of memory: "),
    # sizes past int64: each is refused before it reaches numpy
    "train_states_10_20": (lambda root: _train_args(root / "c", "manifest.tsv",
                                                    "--states", str(HUGE)),
                           f"condition 'a': 126 frames for {HUGE} states"),
    "extract_cepstral_order_10_20": (lambda root: _wav_extract_args(
        root, lambda wav: wav, "--cepstral-order", str(HUGE)),
        "lpc_order and cepstral_order must be at most 281474976710656"),
    **{case: (lambda root, fields=fields: _synth_args(root, **fields),
              "frames, n_states, n_components and dim must be at most 281474976710656")
       for case, fields in SYNTH_PAST_THE_BOUND.items()},
}


class TestErrorBranches:
    """CLI error branches that no other test runs: each exits 3 with its
    message and no traceback."""

    @pytest.mark.parametrize("case", ERROR_BRANCHES)
    def test_exits_3_with_its_message(self, fuzz_banks, tmp_path, capsys, case):
        shutil.copytree(fuzz_banks / "c", tmp_path / "c")
        shutil.copytree(fuzz_banks / "bank2", tmp_path / "bank")
        breaker, message = ERROR_BRANCHES[case]
        argv = breaker(tmp_path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err and message in err, (code, err)

    @pytest.mark.parametrize("case", SYNTH_PAST_THE_BOUND)
    def test_synth_past_the_bound_writes_no_feature_file(self, tmp_path, capsys, case):
        assert main(_synth_args(tmp_path, **SYNTH_PAST_THE_BOUND[case])) == 3
        assert not list(tmp_path.rglob("*.lpcc"))
