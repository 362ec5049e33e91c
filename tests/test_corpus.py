import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmm2tc.audio import load_features
from hmm2tc.corpus import (ManifestEntry, SynthSpec, apply_split_protocol,
                           format_manifest, generate_synthetic_corpus,
                           parse_manifest)
from hmm2tc.errors import DataError, FormatError
from hmm2tc.hmm2 import forward2
from hmm2tc.model_io import dumps_model, load_model, model_from_dict, save_model

from conftest import random_hmm2


def entry(speaker="s1", sentence="t1", condition="neutral", token=1,
          path="f.lpcc", **kw):
    return ManifestEntry(speaker=speaker, sentence=sentence, condition=condition,
                         token=token, path=path, **kw)


class TestManifest:
    def test_minimal(self):
        text = "speaker\tsentence\tcondition\ttoken\tpath\ns1\tt1\tangry\t3\tx.lpcc\n"
        entries = parse_manifest(text)
        assert len(entries) == 1
        e = entries[0]
        assert (e.speaker, e.sentence, e.condition, e.token) == ("s1", "t1", "angry", 3)
        assert e.split == "auto" and e.group == ""

    def test_duplicate_key(self):
        rows = "s1\tt1\tangry\t3\tx.lpcc"
        text = f"speaker\tsentence\tcondition\ttoken\tpath\n{rows}\n{rows}\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_manifest(text)

    def test_missing_column(self):
        with pytest.raises(FormatError, match="missing"):
            parse_manifest("speaker\tsentence\tcondition\ttoken\ns1\tt1\ta\t1\n")

    def test_empty(self):
        with pytest.raises(FormatError, match="empty"):
            parse_manifest("")

    def test_round_trip(self):
        entries = [entry(token=i, path=f"{i}.lpcc", group="male",
                         split="train") for i in range(1, 4)]
        assert parse_manifest(format_manifest(entries)) == entries

    names = st.text(alphabet="abcdefghij0123456789_-", min_size=1, max_size=8)

    @given(st.lists(st.tuples(names, names, names, st.integers(1, 99)),
                    min_size=1, max_size=8, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, keys):
        entries = [entry(speaker=s, sentence=t, condition=c, token=k,
                         path=f"{s}_{t}_{c}_{k}.lpcc") for s, t, c, k in keys]
        assert parse_manifest(format_manifest(entries)) == entries


class TestSplitProtocol:
    def group(self, n=9):
        return [entry(token=i, path=f"{i}.lpcc") for i in range(1, n + 1)]

    def test_five_four(self):
        out = apply_split_protocol(self.group(9), 5, 4)
        splits = [e.split for e in sorted(out, key=lambda e: e.token)]
        assert splits == ["train"] * 5 + ["test"] * 4

    def test_insufficient(self):
        with pytest.raises(DataError):
            apply_split_protocol(self.group(8), 5, 4)

    def test_deterministic_shuffle(self):
        a = apply_split_protocol(self.group(9), 5, 4, seed=3)
        b = apply_split_protocol(self.group(9), 5, 4, seed=3)
        assert a == b
        c = apply_split_protocol(self.group(9), 5, 4, seed=4)
        assert any(x.split != y.split for x, y in zip(a, c)) or a == c

    def test_partition(self):
        out = apply_split_protocol(self.group(9), 5, 4)
        assert sum(e.split == "train" for e in out) == 5
        assert sum(e.split == "test" for e in out) == 4

    def test_explicit_split_preserved(self):
        entries = self.group(10)
        entries[0] = entry(token=1, path="1.lpcc", split="test")
        out = apply_split_protocol(entries, 5, 4)
        assert out[0].split == "test"
        assert sum(e.split == "train" for e in out) == 5

    def test_extra_tokens_unused(self):
        out = apply_split_protocol(self.group(11), 5, 4)
        assert sum(e.split == "unused" for e in out) == 2


class TestSynthCorpus:
    def test_counts_and_manifest(self, tmp_path):
        spec = SynthSpec(labels=["a", "b"], tokens_per_condition=9, frames=50,
                         n_states=2, n_components=1, dim=2, seed=1)
        entries, models = generate_synthetic_corpus(spec, tmp_path)
        assert len(entries) == 18
        assert set(models) == {"a", "b"}
        assert (tmp_path / "manifest.tsv").exists()
        for e in entries:
            seq = load_features(tmp_path / e.path)
            assert seq.frames.shape == (50, 2)

    def test_zero_separation_same_seed_controls(self, tmp_path):
        spec = SynthSpec(labels=["a"], tokens_per_condition=2, frames=20,
                         n_states=2, n_components=1, dim=2, separation=0.0, seed=5)
        _, m1 = generate_synthetic_corpus(spec, tmp_path / "x")
        _, m2 = generate_synthetic_corpus(spec, tmp_path / "y")
        assert np.array_equal(m1["a"].a3, m2["a"].a3)
        assert np.array_equal(m1["a"].mixtures[0].means, m2["a"].mixtures[0].means)

    def test_spec_document_takes_the_dataclass_defaults(self):
        # from_dict passes only the fields a document gives, so a document
        # without them gets the dataclass's own defaults
        assert SynthSpec.from_dict({"labels": ["a"]}) == SynthSpec(labels=["a"])
        doc = {"labels": ["a", "b"], "frames": [20, 40], "dim": 3, "separation": 2}
        assert SynthSpec.from_dict(doc) == SynthSpec(labels=["a", "b"], frames=(20, 40),
                                                     dim=3, separation=2)

    def test_regeneration_byte_identical(self, tmp_path):
        spec = SynthSpec(labels=["a", "b"], tokens_per_condition=3, frames=(20, 40),
                         n_states=2, n_components=2, dim=3, seed=9)
        generate_synthetic_corpus(spec, tmp_path / "one")
        generate_synthetic_corpus(spec, tmp_path / "two")
        for rel in ["manifest.tsv", "features/a_001.lpcc", "features/b_003.lpcc",
                    "true_models/a.model.json"]:
            assert (tmp_path / "one" / rel).read_bytes() == \
                (tmp_path / "two" / rel).read_bytes()


class TestModelIO:
    def test_round_trip_likelihood(self, tmp_path):
        rng = np.random.default_rng(0)
        model = random_hmm2(rng, 5, 5, 16)
        obs = rng.normal(size=(40, 16))
        _, before = forward2(model, obs)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        _, after = forward2(loaded, obs)
        assert abs(after - before) < 1e-12

    def test_save_load_save_identical(self, tmp_path):
        model = random_hmm2(np.random.default_rng(1), 3, 2, 4)
        save_model(model, tmp_path / "a.json")
        save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_model(tmp_path / "bad.json")

    def test_version_check(self, tmp_path):
        model = random_hmm2(np.random.default_rng(2), 2, 1, 2)
        text = dumps_model(model).replace('"format_version":1', '"format_version":99')
        (tmp_path / "v.json").write_text(text)
        with pytest.raises(FormatError, match="version"):
            load_model(tmp_path / "v.json")

    def test_states_with_different_component_counts_rejected(self):
        doc = json.loads(dumps_model(random_hmm2(np.random.default_rng(4), 3, 2, 4)))
        state = doc["mixtures"][1]
        for part in ("weights", "means", "variances"):
            state[part] = state[part][:1]
        state["weights"] = [1.0]
        with pytest.raises((FormatError, DataError)):
            model_from_dict(doc)

    def test_order1_round_trip(self, tmp_path):
        from conftest import random_hmm1
        from hmm2tc.hmm1 import forward1
        rng = np.random.default_rng(3)
        model = random_hmm1(rng, 3, 2, 4)
        obs = rng.normal(size=(20, 4))
        save_model(model, tmp_path / "m1.json")
        loaded = load_model(tmp_path / "m1.json")
        assert abs(forward1(loaded, obs)[1] - forward1(model, obs)[1]) < 1e-12
