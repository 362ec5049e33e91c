import json
import os
import shutil
import warnings

import numpy as np
import pytest

from hmm2tc.cli import main

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

    def test_identify(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert self._train(capsys, synth_corpus, bank, 2)[0] == 0
        feat = synth_corpus / "features" / "a_006.lpcc"
        code, out_text, _ = run(capsys, "identify", "--bank", str(bank),
                                "--features", str(feat))
        assert code == 0
        assert out_text.splitlines()[0] == "a"

    def test_freeze_initials_metadata(self, synth_corpus, tmp_path, capsys):
        bank = tmp_path / "bankf"
        code, _, _ = run(capsys, "train", "--manifest",
                         str(synth_corpus / "manifest.tsv"), "--out", str(bank),
                         "--order", "2", "--states", "2", "--mixtures", "1",
                         "--topology", "ergodic", "--max-iter", "3",
                         "--freeze-initials")
        assert code == 0
        doc = json.loads((bank / "bank.json").read_text())
        model_doc = json.loads((bank / doc["scopes"][0]["models"]["a"]).read_text())
        assert model_doc["metadata"]["freeze_initials"] is True

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
BAD_SCORING_INPUTS = [_cut_features, _odd_features, _no_frames, _wrong_dim, _huge_features,
                      _missing_model, _model_not_text, _bank_not_json, _bank_wrong_shape]


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


def _train_args(root, manifest="manifest.tsv", *extra):
    return ["train", "--manifest", str(root / manifest), "--out", str(root / "bank"),
            "--states", "2", "--mixtures", "1", "--topology", "ergodic", "--max-iter", "2",
            "--pooled", *extra]


def _set_frame(root, name, row, value):
    path = root / "features" / name
    frames = np.frombuffer(path.read_bytes()[13:], dtype="<f8").reshape(-1, 3).copy()
    frames[row, 0] = value
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


def _missing_features(root):
    (root / "features" / "b_002.lpcc").unlink()
    return _train_args(root)


def _wrong_dim_features(root):
    (root / "features" / "b_002.lpcc").write_bytes(_lpcc(np.zeros((40, 4))))
    return _train_args(root)


def _one_frame_sequence(root):
    (root / "features" / "b_002.lpcc").write_bytes(_lpcc(np.zeros((2, 3))))
    return _train_args(root)


def _frame_too_large_to_square(root):
    _set_frame(root, "a_001.lpcc", 5, 1e200)
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


# each breaks a copy of a synthetic corpus (root) -> hmm2tc train arguments
BAD_TRAIN_INPUTS = [_all_test, _no_train_tokens, _binary_manifest, _missing_features,
                    _wrong_dim_features, _one_frame_sequence, _frame_too_large_to_square,
                    _zero_iterations, _nan_tolerance, _negative_iterations, _negative_states,
                    _zero_mixtures, _nan_states]

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
        too_large = breaker is _frame_too_large_to_square
        with warnings.catch_warnings():
            if too_large:   # refused before any arithmetic can overflow
                warnings.simplefilter("error", RuntimeWarning)
            err = self._exits_cleanly(capsys, breaker(root))
        if too_large:
            assert "a_001.lpcc" in err and "frame 5" in err, err

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
        from hmm2tc.init import init_hmm1
        seqs = [load_features(p) for p in sorted((root / "features").glob("*.lpcc"))]
        flat = init_hmm1(seqs, 2, 2, "ergodic", 0).emission_log_probs(seqs[0])[-3]
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
