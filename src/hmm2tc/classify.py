"""Closed-set condition identification: banks of per-condition models,
maximum-likelihood identification, and confusion-matrix evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .config import TrainConfig, frames_of, source_of
from .errors import DataError, NumericError
from .gmm import log_densities
from .em import baum_welch, corpora
from .hmm1 import Hmm1Model
from .hmm2 import Hmm2Model
from .init import flat_start


def round_half_away(x: float) -> float:
    """Round to one decimal, ties away from zero (table-rendering convention)."""
    return math.copysign(math.floor(abs(x) * 10 + 0.5) / 10, x)


@dataclass
class ConditionBank:
    """One model per label. `stack` holds the models' arrays stacked once, in
    label order (`StateModel.stack`), which bank scoring reads."""

    labels: list[str]
    models: dict[str, Hmm1Model | Hmm2Model]
    stack: Hmm1Model | Hmm2Model = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise DataError("bank labels must be nonempty and unique")
        if set(self.models) != set(self.labels):
            raise DataError("bank labels and models must correspond")
        shapes = {(m.order, m.n_states, m.n_components, m.dim) for m in self.models.values()}
        if len(shapes) != 1:
            raise DataError("bank models must share order, N, M and D")
        models = [self.models[label] for label in self.labels]
        self.stack = type(models[0]).stack(models)

    @property
    def dim(self) -> int:
        return self.models[self.labels[0]].dim


@dataclass
class IdentificationResult:
    label: str
    scores: dict[str, float]


def train_bank(training_sets: dict[str, list], order: int, n_states: int,
               n_comp: int, topology: str = "left-right", cfg: TrainConfig | None = None
               ) -> tuple[ConditionBank, dict[str, list[float]]]:
    """One model per condition label; returns the bank and per-label EM traces.
    Each label's corpus is gathered and checked once (`em.corpora`); with
    them, the whole bank flat-starts in one call (`init.flat_start`, label i
    with seed cfg.seed + i) and trains in one EM loop (`em.baum_welch`).
    Input that `em.corpora` refuses, or a training frame whose squared norm
    is not finite, raises DataError naming its condition and source."""
    cfg = cfg or TrainConfig()
    bank = corpora(training_sets)
    for c in bank:
        with np.errstate(over="ignore"):
            big = np.flatnonzero(~np.isfinite(np.sum(c.frames * c.frames, axis=1)))
        if big.size:
            raise DataError(f"condition {c.label!r}: {c.names[c.seq[big[0]]]} frame "
                            f"{c.time[big[0]]} is too large or not a number: its squared "
                            "norm is not finite")
    flat = flat_start(bank, order, n_states, n_comp, topology, cfg.seed)
    models, traces = zip(*baum_welch(flat, bank, cfg))
    labels = list(training_sets)
    return ConditionBank(labels, dict(zip(labels, models))), dict(zip(labels, traces))


def _scores(stack, mat: np.ndarray, scoring: str) -> np.ndarray:
    """The score of one (T, D) utterance under each of the B models of a
    stack (`StateModel.stack`), log P(O | model) or its best path's, -inf
    where a model gives it probability 0 or has no admissible path: one
    emission call over the stack's mixtures and one lattice pass over its
    chains, one per model, whose tables come out in the engine's layout."""
    if scoring not in ("forward", "viterbi"):
        raise DataError(f"unknown scoring mode {scoring!r}")
    logb = log_densities(stack.mixtures, mat)   # (T, B*N), a view of the (B*N, T) table
    chains = stack._chain(logb.reshape(len(mat), -1, stack.n_states).swapaxes(0, 1))
    if scoring == "forward":
        return lattice.loglik(*chains)
    return lattice.viterbi_scores(*chains)


def identify(bank: ConditionBank, obs, scoring: str = "forward") -> IdentificationResult:
    """Maximum-likelihood label; ties broken by bank label order. The whole
    bank is scored in one pass (`_scores`)."""
    mat = frames_of(obs)
    if mat.shape[1] != bank.dim:
        raise DataError(f"observation dim {mat.shape[1]} != bank dim {bank.dim}")
    values = _scores(bank.stack, mat, scoring)
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


def evaluate(bank: ConditionBank, test_sets: dict[str, list]) -> EvaluationReport:
    """Identify every test utterance by forward likelihood and tabulate the
    confusion counts; test_sets maps the true label to its utterances."""
    tests = ((None, label, obs, None) for label, seqs in test_sets.items() for obs in seqs)
    return evaluate_scopes({None: bank}, tests)


def evaluate_scopes(banks: dict, tests, scoring: str = "forward",
                    protocol: dict | None = None) -> EvaluationReport:
    """Identify each test utterance against the bank of its scope and
    tabulate the confusion counts.

    banks maps a scope key to its bank; tests yields (scope key, true label,
    utterance, group name or None) tuples. The report's labels are the union
    of the banks' labels, the first bank's in its order first. A true label
    that its own scope's bank has no model for raises DataError: that
    utterance could only ever count as a miss. So does an empty test set,
    whose report would read 0 % for every condition. An utterance that
    `identify` cannot score raises its error again, named by its source id.
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
        try:
            result = identify(banks[key], obs, scoring)
        except (DataError, NumericError) as exc:
            raise type(exc)(f"{source_of(obs, len(records))}: {exc}") from exc
        cell = index[result.label], index[true_label]
        counts[cell] += 1
        if group is not None:
            group_counts.setdefault(group, np.zeros(shape, dtype=np.int64))[cell] += 1
        records.append(_score_record(true_label, result, obs))
    if not records:
        raise DataError("no test utterances to evaluate")
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


def improvement_table(baseline: dict, new: dict) -> dict[str, float | None]:
    """Per-condition improvement rates of two report documents (`to_dict`),
    rounded to one decimal; None for a condition whose baseline rate is 0,
    over which no relative gain is defined."""
    if baseline["labels"] != new["labels"]:
        raise DataError("reports have mismatched condition labels")
    return {lab: None if rb == 0 else round_half_away(improvement_rate(rb, rn))
            for lab, rb, rn in zip(baseline["labels"], baseline["rates"], new["rates"])}


def _table(rows: list[list[str]]) -> list[str]:
    """Rows of cells as lines, each column right-aligned to its widest cell."""
    widths = [max(map(len, col)) for col in zip(*rows)]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]


def render_report_text(report: EvaluationReport, title: str = "") -> str:
    """Aligned plain-text tables: per-condition rates then the confusion matrix."""
    labels = report.labels
    lines = [title, "=" * len(title), ""] if title else []
    group_rates = report.group_rates()
    lines.append("TALKING CONDITION IDENTIFICATION PERFORMANCE")
    lines += _table([["Condition", *group_rates, "Average"]]
                    + [[lab] + [f"{round_half_away(r[i]):.1f}%"
                                for r in (*group_rates.values(), report.rates)]
                       for i, lab in enumerate(labels)])
    lines.append("")
    lines.append("CONFUSION MATRIX (columns: portrayed condition, rows: evaluated; column %)")
    lines += _table([["Model", *labels]]
                    + [[lab] + [f"{round_half_away(p):.1f}%" for p in row]
                       for lab, row in zip(labels, report.percentages)])
    lines.append("")
    lines.append(f"test utterances: {report.n_test}")
    return "\n".join(lines) + "\n"


def render_improvement_text(table: dict[str, float | None]) -> str:
    rows = [["Model", *table],
            ["%"] + ["n/a" if v is None else f"{v:.1f}" for v in table.values()]]
    return "\n".join(["AVERAGE IMPROVEMENT RATE", *_table(rows)]) + "\n"
