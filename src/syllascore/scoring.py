"""Quality scores and evaluation numbers from classifier outputs.

The per-fragment probability of belonging to the pre-operation class is the
quality score. Fragments aggregate to a syllable score (mean over the
syllable's fragments) and syllables to a session score (unweighted mean over
syllables, so long recordings cannot dominate). Classification accuracy uses
the fixed threshold p >= 0.5 -> class 1.
"""

import csv
import io
import json
import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import corpus, nn
from .dataset import filter_cohort, split_rows
from .errors import DegenerateInput, EmptySession, EmptySplit

logger = logging.getLogger(__name__)


@dataclass
class ScoreReport:
    """Scores for one (patient, session): fragment, syllable, session level."""

    patient_id: str
    session_index: int
    fragment_scores: dict[str, list[float]]  # syllable_id -> per-fragment probabilities
    syllable_scores: dict[str, float]  # syllable_id -> mean of its fragments
    session_score: float
    n_fragments: int
    n_syllables: int
    missing_syllables: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.syllable_scores.keys() <= self.fragment_scores.keys():
            raise ValueError("every scored syllable needs its fragment scores")


@dataclass
class EvalReport:
    """Accuracy of a model over one cohort's train/test split."""

    cohort: str
    n_train: int
    n_test: int
    train_accuracy: float
    test_accuracy: float
    train_per_class: dict[str, Optional[float]]  # "0"/"1" -> accuracy on that class (None if absent)
    test_per_class: dict[str, Optional[float]]


@dataclass
class EvalGrid:
    """Evaluation reports for several cohorts, one row each."""

    reports: list[EvalReport]

    def __post_init__(self):
        if not self.reports:
            raise ValueError("an eval grid needs at least one report")


@dataclass
class ScoreGrid:
    """Scores for several sessions, plus the optional expert-mark comparison."""

    reports: list[ScoreReport]
    expert_correlation: Optional[float] = None
    skipped_sessions: list[tuple[str, int]] = field(default_factory=list)  # sessions with no fragments


def score_session(scores_by_syllable, patient_id, session_index, fragment_mean=False):
    """Aggregate one session's per-fragment probabilities, grouped per syllable.

    scores_by_syllable maps syllable_id -> sequence of class-1 probabilities;
    an empty sequence marks a recording that gated away, which is reported
    as missing rather than scored. With fragment_mean=True the session score
    is the mean over all fragments instead of the unweighted syllable mean.
    """
    fragment_scores = {}
    syllable_scores = {}
    missing = []
    all_scores = []
    for syllable_id in sorted(scores_by_syllable):
        p = np.asarray(scores_by_syllable[syllable_id], dtype=np.float64)
        if p.size == 0:
            missing.append(syllable_id)
            continue
        fragment_scores[syllable_id] = [float(v) for v in p]
        syllable_scores[syllable_id] = float(p.mean())
        all_scores.extend(fragment_scores[syllable_id])
    if not syllable_scores:
        raise EmptySession(f"session {session_index} of patient {patient_id} has no fragments")
    if fragment_mean:
        session = float(np.mean(all_scores))
    else:
        session = float(np.mean(list(syllable_scores.values())))
    return ScoreReport(
        patient_id=patient_id,
        session_index=session_index,
        fragment_scores=fragment_scores,
        syllable_scores=syllable_scores,
        session_score=session,
        n_fragments=len(all_scores),
        n_syllables=len(syllable_scores),
        missing_syllables=missing,
    )


def session_probabilities(model, manifest, pairs):
    """Run each (patient_id, session_index) session of pairs through the network.

    Each session's fragments are stacked (corpus.collect_session_fragments),
    standardized and sent through the network once (nn.forward_batch), as a
    job for nn.overlap while the next session is read. Returns (sessions, skipped):
    sessions holds (patient_id, session_index, records, counts, p) for each
    session with fragments, in pairs order, where p holds the probabilities
    of its stack and counts[i] how many of them records[i] gave; skipped
    lists, and logs, the pairs whose session gated away entirely. Each session
    read is logged at INFO on the calling thread, in pairs order: its
    recordings, how many gated away, and its fragments.
    """
    skipped = []
    sessions = []

    def jobs():
        for patient_id, session_index in pairs:
            try:
                X, records, counts = corpus.collect_session_fragments(manifest, patient_id, session_index,
                                                                      model.dsp_config)
            except EmptySession:
                logger.warning("session %s of patient %s has no fragments; skipped",
                               session_index, patient_id)
                skipped.append((patient_id, session_index))
                continue
            logger.info("session %d of patient %s: %d recordings read, %d gated away, %d fragments",
                        session_index, patient_id, len(records), counts.count(0), len(X))
            sessions.append((patient_id, session_index, records, counts))
            yield partial(nn.forward_batch, model, model.standardize(X))

    probabilities = list(nn.overlap(jobs()))
    return [(*session, p) for session, p in zip(sessions, probabilities, strict=True)], skipped


def score_sessions(model, manifest, pairs, fragment_mean=False, expert_marks=False):
    """Score (patient_id, session_index) pairs of a manifest into one grid.

    The probabilities come from session_probabilities, one forward per
    session; sessions that gate away are listed as skipped. expert_marks=True
    adds the correlation of syllable scores with the manifest's expert marks,
    left None (with a warning) under 3 marked syllables or for a constant side.
    """
    sessions, skipped = session_probabilities(model, manifest, pairs)
    reports = []
    marked = []  # (syllable score, expert mark)
    for patient_id, session_index, records, counts, p in sessions:
        p = np.split(p, np.cumsum(counts)[:-1])
        report = score_session({rec.syllable_id: s for rec, s in zip(records, p)}, patient_id, session_index,
                               fragment_mean=fragment_mean)
        reports.append(report)
        if expert_marks:
            marked += [(report.syllable_scores[rec.syllable_id], rec.expert_mark) for rec in records
                       if rec.expert_mark is not None and rec.syllable_id in report.syllable_scores]
    if not reports:
        raise EmptySession("no rehabilitation session (index >= 3) with fragments to score")
    correlation = None
    if expert_marks:
        try:  # pearson refuses fewer than 3 marks (ValueError) and a constant side
            correlation = pearson([s for s, _ in marked], [m for _, m in marked])
        except (ValueError, DegenerateInput) as exc:
            logger.warning("expert-mark correlation not computed: %s", exc)
    return ScoreGrid(reports=reports, expert_correlation=correlation, skipped_sessions=skipped)


def _per_class_accuracy(p, y):
    return {str(cls): nn.accuracy(p[y == cls], y[y == cls]) if np.any(y == cls) else None for cls in (0, 1)}


def evaluate(p, y, split, cohort="all"):
    """Accuracy of class-membership probabilities p over the sides of a split assignment."""
    train, test = split.train_indices, split.test_indices
    if test.size == 0:
        raise EmptySplit("test split is empty")
    p, y = np.asarray(p), np.asarray(y)
    return EvalReport(
        cohort=str(cohort),
        n_train=int(train.size),
        n_test=int(test.size),
        train_accuracy=nn.accuracy(p[train], y[train]),
        test_accuracy=nn.accuracy(p[test], y[test]),
        train_per_class=_per_class_accuracy(p[train], y[train]),
        test_per_class=_per_class_accuracy(p[test], y[test]),
    )


def evaluate_cohorts(model, manifest, cohorts):
    """Accuracy of a model on each cohort's split of its labeled sessions (1 and 2).

    Every cohort is checked (EmptyCohort) before their patients' sessions are
    read and run through the network once (session_probabilities). Each
    cohort takes its patients' rows as if read alone and rebuilds the model's
    split over them. Returns an EvalReport, or an EvalGrid for several cohorts.
    """
    members = [{r.patient_id for r in filter_cohort(manifest, cohort).records} for cohort in cohorts]
    pairs = sorted({(r.patient_id, r.session_index) for r in manifest.records
                    if r.session_index in (1, 2) and any(r.patient_id in m for m in members)})
    sessions, _ = session_probabilities(model, manifest, pairs)
    if not sessions:
        raise DegenerateInput("no fragments survived preprocessing")
    _, _, records, counts, probabilities = zip(*sessions)
    y, groups = corpus.labeled_rows([r for rs in records for r in rs], [n for ns in counts for n in ns])
    p = np.concatenate(probabilities)
    reports = []
    for cohort, patients in zip(cohorts, members):
        rows = np.flatnonzero([patient in patients for patient, _, _ in groups])  # groups are record keys
        split = split_rows([groups[i] for i in rows], y[rows], model.train_meta or {})
        reports.append(evaluate(p[rows], y[rows], split, cohort=str(cohort)))
    return EvalGrid(reports) if len(reports) > 1 else reports[0]


def pearson(xs, ys):
    """Sample Pearson correlation coefficient.

    With a binary second argument this is the point-biserial coefficient,
    which is how continuous quality scores are compared against binary
    expert marks. Constant input is an error, not a silent zero.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if xs.size < 3:
        raise ValueError("need at least 3 observations")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation is undefined for a constant sequence")
    return float(dx @ dy / np.sqrt(sxx * syy))


# --------------------------------------------------------------------------
# Report rendering: text for humans, csv/json for machines.
# --------------------------------------------------------------------------

def _score_report_csv(r):
    key = [r.patient_id, r.session_index]
    rows = [["level", "patient_id", "session_index", "syllable_id", "fragment_index", "score"]]
    rows += [["fragment", *key, syllable_id, k, repr(p)]
             for syllable_id, scores in r.fragment_scores.items() for k, p in enumerate(scores)]
    rows += [["syllable", *key, syllable_id, "", repr(score)]
             for syllable_id, score in r.syllable_scores.items()]
    return rows + [["session", *key, "", "", repr(r.session_score)]]


def _score_report_text(r):
    lines = [f"patient {r.patient_id}  session {r.session_index}"]
    for syllable_id, score in r.syllable_scores.items():
        n = len(r.fragment_scores[syllable_id])
        lines.append(f"  {syllable_id:<12} {score:8.4f}  ({n} fragments)")
    for syllable_id in r.missing_syllables:
        lines.append(f"  {syllable_id:<12}  missing (no fragments after gating)")
    return lines + [f"  session score Q = {r.session_score:.4f} over {r.n_syllables} syllables"]


def _eval_csv(reports):
    return [["cohort", "n_train", "n_test", "train_accuracy", "test_accuracy"]] + [
        [r.cohort, r.n_train, r.n_test, repr(r.train_accuracy), repr(r.test_accuracy)] for r in reports]


def _eval_text(reports):
    width = max(12, *(len(r.cohort) for r in reports)) + 2
    return [f"{'cohort':<{width}}{'train':>9}{'test':>9}{'n_train':>9}{'n_test':>8}"] + [
        f"{r.cohort:<{width}}{r.train_accuracy:>9.3f}{r.test_accuracy:>9.3f}{r.n_train:>9}{r.n_test:>8}"
        for r in reports]


_TRACE_COLUMNS = ["epoch", "train_loss", "train_accuracy", "test_loss", "test_accuracy"]


def _trace_csv(trace):
    return [_TRACE_COLUMNS] + [[e + 1, *map(repr, row)] for e, row in enumerate(trace.rows())]


def _trace_text(trace):
    h = _TRACE_COLUMNS
    return [f"{h[0]:>6} {h[1]:>12} {h[2]:>15} {h[3]:>12} {h[4]:>14}"] + [
        f"{e + 1:>6} {tl:>12.5f} {ta:>15.4f} {vl:>12.5f} {va:>14.4f}"
        for e, (tl, ta, vl, va) in enumerate(trace.rows())]


def _score_grid_csv(grid):
    return [["patient_id", "session_index", "session_score", "n_syllables", "n_fragments"]] + [
        [r.patient_id, r.session_index, repr(r.session_score), r.n_syllables, r.n_fragments]
        for r in grid.reports]


def _score_grid_text(grid):
    lines = [f"{'patient':<10}{'session':>8}{'score Q':>10}{'syllables':>11}{'fragments':>11}"]
    for r in grid.reports:
        lines.append(f"{r.patient_id:<10}{r.session_index:>8}{r.session_score:>10.4f}"
                     f"{r.n_syllables:>11}{r.n_fragments:>11}")
    for patient_id, session_index in grid.skipped_sessions:
        lines.append(f"{patient_id:<10}{session_index:>8}   missing (no fragments)")
    if grid.expert_correlation is not None:
        lines.append(f"correlation with expert marks: {grid.expert_correlation:.4f}")
    return lines


# Every report kind, by its "kind" tag in a json document: (its type, its csv
# rows with the header first, its lines of text). A lone EvalReport renders
# as a one-row grid.
_KINDS = {
    "score_report": (ScoreReport, _score_report_csv, _score_report_text),
    "eval_report": (EvalReport, lambda r: _eval_csv([r]), lambda r: _eval_text([r])),
    "eval_grid": (EvalGrid, lambda g: _eval_csv(g.reports), lambda g: _eval_text(g.reports)),
    "train_trace": (nn.TrainTrace, _trace_csv, _trace_text),
    "score_grid": (ScoreGrid, _score_grid_csv, _score_grid_text),
}
_KIND_OF = {cls: kind for kind, (cls, _, _) in _KINDS.items()}


def _doc_of(report):
    """The json object of a report: its kind, then its fields in order."""
    if type(report) not in _KIND_OF:
        raise TypeError(f"cannot render {type(report).__name__}")
    return {"kind": _KIND_OF[type(report)], **vars(report)}


def to_json(report):
    """Lossless JSON rendering of any report object."""
    return json.dumps(_doc_of(report), default=_doc_of, indent=1)


def _decode(value, hint):
    """A parsed json value checked against a type hint, reports and tuples rebuilt."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _KIND_OF and isinstance(value, dict) and value.get("kind") == _KIND_OF[hint]:
        hints = get_type_hints(hint)
        if value.keys() - {"kind"} != hints.keys():
            raise ValueError(f"{_KIND_OF[hint]} has the fields {sorted(hints)}, got {sorted(value)}")
        return hint(**{name: _decode(value[name], h) for name, h in hints.items()})
    if origin is Union:  # Optional[...]
        return None if value is None else _decode(value, args[0])
    if origin is list and isinstance(value, list):
        return [_decode(v, args[0]) for v in value]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_decode(v, a) for v, a in zip(value, args))
    if origin is dict and isinstance(value, dict):
        return {_decode(k, args[0]): _decode(v, args[1]) for k, v in value.items()}
    if type(value) is hint:  # bool is not int here, and int is not float
        if hint is str:
            value.encode("utf-8")  # a lone surrogate cannot be written back out
        return value
    raise ValueError(f"expected {getattr(hint, '__name__', hint)}, got {value!r:.40}")


def from_json(text):
    """Parse a document produced by to_json back into its report object; any other document,
    such as one with a missing, unknown or mistyped field or a number that is not finite, raises ValueError."""
    def finite(token):  # json.loads reads NaN, Infinity and 1e999 as floats, which no report holds
        value = float(token)
        if not np.isfinite(value):
            raise ValueError(f"{token} is not a finite number")
        return value

    doc = json.loads(text, parse_float=finite, parse_constant=finite)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"not a report document (kind {kind!r:.40})")
    return _decode(doc, _KINDS[kind][0])


def to_csv(report):
    """CSV rendering; columns are documented in the README."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_KINDS[_doc_of(report)["kind"]][1](report))
    return buf.getvalue()


def to_text(report):
    """Human-readable rendering."""
    return "\n".join(_KINDS[_doc_of(report)["kind"]][2](report))


_RENDERERS = {"json": to_json, "csv": to_csv, "text": to_text}


def render(report, fmt):
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _RENDERERS[fmt](report)
