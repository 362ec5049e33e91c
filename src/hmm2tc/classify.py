"""Closed-set condition identification: banks of per-condition models,
maximum-likelihood identification, and confusion-matrix evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .config import TrainConfig, frames_of
from .errors import DataError, NumericError
from .gmm import GaussianMixture, log_densities
from .hmm1 import Hmm1Model, _baum_welch
from .hmm2 import Hmm2Model
from .init import init_hmm1, init_hmm2

_SQUARABLE = np.sqrt(np.finfo(np.float64).max)  # the largest x whose x**2 is finite


def round_half_away(x: float, decimals: int = 1) -> float:
    """Round with ties going away from zero (table-rendering convention)."""
    scale = 10 ** decimals
    return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)


@dataclass
class ConditionBank:
    labels: list[str]
    models: dict[str, Hmm1Model | Hmm2Model]
    scope: dict = field(default_factory=dict)  # e.g. speaker / sentence ids

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise DataError("bank labels must be nonempty and unique")
        if set(self.models) != set(self.labels):
            raise DataError("bank labels and models must correspond")
        shapes = {(m.order, m.n_states, m.n_components, m.dim) for m in self.models.values()}
        if len(shapes) != 1:
            raise DataError("bank models must share order, N, M and D")

    @property
    def dim(self) -> int:
        return self.models[self.labels[0]].dim


@dataclass
class IdentificationResult:
    label: str
    scores: dict[str, float]


def train_bank(training_sets: dict[str, list], order: int, n_states: int,
               n_comp: int, topology: str = "left-right",
               cfg: TrainConfig | None = None, scope: dict | None = None
               ) -> tuple[ConditionBank, dict[str, list[float]]]:
    """One model per condition label; returns the bank and per-label EM traces.
    Label i's flat start takes seed cfg.seed + i, and the whole bank trains
    in one EM loop (`hmm1._baum_welch`). A training frame with a value too
    large to square raises DataError."""
    cfg = cfg or TrainConfig()
    if not training_sets:
        raise DataError("no condition labels to train")
    dims = set()
    for label, seqs in training_sets.items():
        if not seqs:
            raise DataError(f"condition {label!r} has no training sequences")
        for i, seq in enumerate(seqs):
            mat = frames_of(seq)
            dims.add(mat.shape[1])
            big = np.flatnonzero(np.any(np.abs(mat) > _SQUARABLE, axis=1))
            if big.size:
                source = getattr(seq, "source_id", "") or f"sequence {i}"
                raise DataError(f"condition {label!r}: {source} frame {big[0]} holds a value "
                                f"too large to square (|x| > {_SQUARABLE:.4g})")
    if len(dims) != 1:
        raise DataError("training sequences have heterogeneous dimensions")
    if order not in (1, 2):
        raise DataError(f"unsupported model order {order}")
    init = init_hmm1 if order == 1 else init_hmm2
    labels, corpora = list(training_sets), list(training_sets.values())
    flat = [init(seqs, n_states, n_comp, topology, cfg.seed + idx)
            for idx, seqs in enumerate(corpora)]
    trained = _baum_welch(flat, corpora, cfg)
    models = {label: model for label, (model, _) in zip(labels, trained)}
    traces = {label: trace for label, (_, trace) in zip(labels, trained)}
    return ConditionBank(labels, models, scope or {}), traces


def score_sequence(model: Hmm1Model | Hmm2Model, obs, scoring: str = "forward") -> float:
    """log P(O | model) ("forward") or the best path's log score ("viterbi")."""
    return float(_scores([model], frames_of(obs), scoring)[0])


def _scores(models: list, mat: np.ndarray, scoring: str) -> np.ndarray:
    """The score of one (T, D) utterance under each of B models of one order
    and shape (`score_sequence`), -inf where a model gives it probability 0
    or has no admissible path: one emission call over the models' emission
    stacks, concatenated, and one lattice pass over the stack of their chains."""
    if scoring not in ("forward", "viterbi"):
        raise DataError(f"unknown scoring mode {scoring!r}")
    logb = log_densities(GaussianMixture.stack(model.mixtures for model in models), mat)
    logb = logb.reshape(len(mat), len(models), -1).transpose(1, 0, 2)
    chains = (model._chain(b) for model, b in zip(models, logb))
    log_init, trans, table = (np.stack(part) for part in zip(*chains))
    if scoring == "forward":
        return lattice.loglik(log_init, trans, table)
    return lattice.viterbi_scores(log_init, trans, table)


def identify(bank: ConditionBank, obs, scoring: str = "forward") -> IdentificationResult:
    """Maximum-likelihood label; ties broken by bank label order. The whole
    bank is scored in one pass (`_scores`)."""
    mat = frames_of(obs)
    if mat.shape[1] != bank.dim:
        raise DataError(f"observation dim {mat.shape[1]} != bank dim {bank.dim}")
    values = _scores([bank.models[label] for label in bank.labels], mat, scoring)
    scores = {label: float(v) for label, v in zip(bank.labels, values)}
    best = max(bank.labels, key=lambda lab: scores[lab])  # max keeps first on ties
    if scores[best] == -np.inf:
        raise NumericError("no model assigns nonzero probability to this utterance")
    return IdentificationResult(best, scores)


@dataclass
class EvaluationReport:
    """Counts indexed [predicted][true]; percentages column-normalized as in
    the published confusion-matrix layout (each true-condition column sums
    to 100)."""

    labels: list[str]
    counts: np.ndarray
    protocol: dict = field(default_factory=dict)
    group_counts: dict[str, np.ndarray] = field(default_factory=dict)
    # one `_score_record` per utterance, in test order; not part of to_dict
    utterances: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if self.counts.shape != (n, n):
            raise DataError("count matrix shape must match the label list")
        if np.any(self.counts < 0):
            raise DataError("counts must be nonnegative")

    @staticmethod
    def _percentages(counts: np.ndarray) -> np.ndarray:
        col = counts.sum(axis=0)
        out = np.zeros(counts.shape, dtype=np.float64)
        nz = col > 0
        out[:, nz] = 100.0 * counts[:, nz] / col[nz]
        return out

    @property
    def percentages(self) -> np.ndarray:
        return self._percentages(self.counts)

    @property
    def rates(self) -> np.ndarray:
        """Per-condition identification rate: the diagonal percentage."""
        return np.diag(self.percentages)

    def group_rates(self) -> dict[str, np.ndarray]:
        return {g: np.diag(self._percentages(c)) for g, c in self.group_counts.items()}

    @property
    def n_test(self) -> int:
        return int(self.counts.sum())

    def to_dict(self) -> dict:
        doc = {
            "format_version": 1,
            "labels": list(self.labels),
            "counts": self.counts.tolist(),
            "percentages": self.percentages.tolist(),
            "rates": self.rates.tolist(),
            "n_test": self.n_test,
            "protocol": self.protocol,
        }
        if self.group_counts:
            doc["group_counts"] = {g: c.tolist() for g, c in self.group_counts.items()}
            doc["group_rates"] = {g: r.tolist() for g, r in self.group_rates().items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EvaluationReport":
        groups = {g: np.asarray(c) for g, c in doc.get("group_counts", {}).items()}
        return cls(list(doc["labels"]), np.asarray(doc["counts"]),
                   doc.get("protocol", {}), groups)


def evaluate(bank: ConditionBank, test_sets: dict[str, list],
             scoring: str = "forward", protocol: dict | None = None,
             groups: dict[str, str] | None = None) -> EvaluationReport:
    """Identify every test utterance and tabulate the confusion counts.

    test_sets maps the true label to its utterances. When groups maps a
    source id to a group name, per-group count matrices are kept as well.
    """
    groups = groups or {}
    tests = ((None, label, obs, groups.get(getattr(obs, "source_id", "")))
             for label, seqs in test_sets.items() for obs in seqs)
    return evaluate_scopes({None: bank}, tests, scoring, protocol)


def evaluate_scopes(banks: dict, tests, scoring: str = "forward",
                    protocol: dict | None = None) -> EvaluationReport:
    """Identify each test utterance against the bank of its scope and
    tabulate the confusion counts.

    banks maps a scope key to its bank; tests yields (scope key, true label,
    utterance, group name or None) tuples. The report's labels are the union
    of the banks' labels, the first bank's in its order first. A true label
    that its own scope's bank has no model for raises DataError: that
    utterance could only ever count as a miss.
    """
    labels = list(dict.fromkeys(lab for bank in banks.values() for lab in bank.labels))
    index = {lab: i for i, lab in enumerate(labels)}
    shape = (len(labels), len(labels))
    counts = np.zeros(shape, dtype=np.int64)
    group_counts: dict[str, np.ndarray] = {}
    records = []
    for key, true_label, obs, group in tests:
        if key not in banks:
            raise DataError(f"no trained bank for scope {key}")
        if true_label not in banks[key].models:
            raise DataError(f"unknown condition label {true_label!r} in scope {key}")
        result = identify(banks[key], obs, scoring)
        cell = index[result.label], index[true_label]
        counts[cell] += 1
        if group is not None:
            group_counts.setdefault(group, np.zeros(shape, dtype=np.int64))[cell] += 1
        records.append(_score_record(true_label, result, obs))
    return EvaluationReport(labels, counts, protocol or {}, group_counts, records)


def _score_record(true_label: str, result: IdentificationResult, obs) -> dict:
    """One utterance's scores: its source id, T, the true and predicted
    labels, every label's score and the margin of the best score over the
    second best. A score or margin that is not finite is None (a model that
    gives the utterance probability 0)."""
    def finite(x: float) -> float | None:
        return float(x) if math.isfinite(x) else None

    ranked = sorted(result.scores.values(), reverse=True)
    margin = ranked[0] - ranked[1] if len(ranked) > 1 else math.inf
    return {"source": getattr(obs, "source_id", ""), "T": frames_of(obs).shape[0],
            "true": true_label, "predicted": result.label,
            "scores": {lab: finite(v) for lab, v in result.scores.items()},
            "margin": finite(margin)}


def improvement_rate(perf_baseline: float, perf_new: float) -> float:
    """Relative gain in percent of the new rate over the baseline rate."""
    if perf_baseline <= 0:
        raise DataError("baseline rate must be positive")
    return 100.0 * (perf_new - perf_baseline) / perf_baseline


def improvement_table(baseline: EvaluationReport | dict, new: EvaluationReport | dict
                      ) -> dict[str, float]:
    """Per-condition improvement rates, rounded to one decimal."""
    def rates_of(rep):
        if isinstance(rep, EvaluationReport):
            return list(rep.labels), list(rep.rates)
        return list(rep["labels"]), list(rep["rates"])

    labels_b, rates_b = rates_of(baseline)
    labels_n, rates_n = rates_of(new)
    if labels_b != labels_n:
        raise DataError("reports have mismatched condition labels")
    return {lab: round_half_away(improvement_rate(rb, rn), 1)
            for lab, rb, rn in zip(labels_b, rates_b, rates_n)}


def _fmt_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(c.rjust(w) for c, w in zip(cells, widths))


def render_report_text(report: EvaluationReport, title: str = "") -> str:
    """Aligned plain-text tables: per-condition rates then the confusion matrix."""
    labels = report.labels
    lines = []
    if title:
        lines += [title, "=" * len(title), ""]
    group_rates = report.group_rates()
    lines.append("TALKING CONDITION IDENTIFICATION PERFORMANCE")
    header = ["Condition"] + list(group_rates) + ["Average"]
    rows = [header]
    rates = report.rates
    for i, lab in enumerate(labels):
        row = [lab]
        for g in group_rates:
            row.append(f"{round_half_away(group_rates[g][i], 1):.1f}%")
        row.append(f"{round_half_away(rates[i], 1):.1f}%")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines += [_fmt_row(r, widths) for r in rows]
    lines.append("")
    lines.append("CONFUSION MATRIX (columns: portrayed condition, rows: evaluated; column %)")
    pct = report.percentages
    rows = [["Model"] + labels]
    for i, lab in enumerate(labels):
        rows.append([lab] + [f"{round_half_away(pct[i, j], 1):.1f}%"
                             for j in range(len(labels))])
    widths = [max(len(r[c]) for r in rows) for c in range(len(labels) + 1)]
    lines += [_fmt_row(r, widths) for r in rows]
    lines.append("")
    lines.append(f"test utterances: {report.n_test}")
    return "\n".join(lines) + "\n"


def render_improvement_text(table: dict[str, float]) -> str:
    rows = [["Model"] + list(table), ["%"] + [f"{v:.1f}" for v in table.values()]]
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    title = "AVERAGE IMPROVEMENT RATE"
    return "\n".join([title] + [_fmt_row(r, widths) for r in rows]) + "\n"
