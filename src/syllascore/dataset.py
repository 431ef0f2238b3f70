"""Corpus catalog: manifest parsing, validation, cohort filtering, splitting.

A manifest is a UTF-8 text file:

    #sample_rate_hz=16000
    #patient P001 sex=m
    P001,1,s01,problem90,audio/P001_1_s01.wav,1
    P001,2,s01,problem90,audio/P001_2_s01.wav,0
    P001,3,s01,problem90,audio/P001_3_s01.wav,,1

One record per line: patient_id, session_index, syllable_id, syllable_set,
audio_path, then optional class_label and expert_mark. Fields may not
contain commas. Session 1 recordings are the patient's pre-operation
reference (class 1), session 2 the immediate post-operation state (class
0); rehabilitation sessions (>= 3) carry no class label. An empty
class_label field is allowed so an expert_mark can follow it.
"""

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DegenerateInput, EmptyCohort, ParseError, ValidationError

logger = logging.getLogger(__name__)

SYLLABLE_SETS = ("gost100", "problem90", "other")

COHORT_ALL = "all"
COHORT_INDIVIDUAL = "individual"
COHORT_SEX = "sex"


@dataclass(frozen=True)
class SyllableRecord:
    """One syllable recording: who, which session, which syllable, where."""

    patient_id: str
    session_index: int
    syllable_id: str
    syllable_set: str
    audio_path: str
    class_label: Optional[int] = None
    expert_mark: Optional[int] = None

    def key(self):
        return (self.patient_id, self.session_index, self.syllable_id)


@dataclass(frozen=True)
class Manifest:
    """Validated catalog of syllable recordings for one corpus."""

    records: tuple
    sample_rate_hz: int
    patient_sex: dict  # patient_id -> "m" | "f"; may be empty
    root: Path  # directory audio paths are resolved against

    def patients(self):
        seen = []
        for rec in self.records:
            if rec.patient_id not in seen:
                seen.append(rec.patient_id)
        return seen

    def sessions(self, patient_id):
        return sorted({r.session_index for r in self.records if r.patient_id == patient_id})

    def resolve_audio(self, rec):
        p = Path(rec.audio_path)
        return p if p.is_absolute() else self.root / p


@dataclass(frozen=True)
class Cohort:
    """Selector for a training population: everyone, one patient, or one sex."""

    kind: str
    arg: Optional[str] = None

    @classmethod
    def parse(cls, text):
        """Parse 'all', 'individual:<id>' or 'sex:<m|f>'."""
        if text == COHORT_ALL:
            return cls(COHORT_ALL)
        kind, sep, arg = text.partition(":")
        if kind == COHORT_INDIVIDUAL and sep and arg:
            return cls(kind, arg)
        if kind == COHORT_SEX and sep:
            if arg not in ("m", "f"):
                raise ValueError("sex cohort must be 'm' or 'f'")
            return cls(kind, arg)
        raise ValueError(f"bad cohort selector {text!r} (want all, individual:<id>, sex:<m|f>)")

    def __str__(self):
        return self.kind if self.arg is None else f"{self.kind}:{self.arg}"


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/test index sets over a fragment collection."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


def _parse_optional_binary(field, what, lineno):
    if field == "":
        return None
    if field in ("0", "1"):
        return int(field)
    raise ParseError(f"line {lineno}: {what} must be 0, 1 or empty, got {field!r}")


def _parse_record(line, lineno):
    parts = line.split(",")
    if not 5 <= len(parts) <= 7:
        raise ParseError(f"line {lineno}: expected 5 to 7 comma-separated fields, got {len(parts)}")
    patient_id, session_text, syllable_id, syllable_set, audio_path = (p.strip() for p in parts[:5])
    if not patient_id or not syllable_id or not audio_path:
        raise ParseError(f"line {lineno}: empty required field")
    try:
        session_index = int(session_text)
    except ValueError:
        raise ParseError(f"line {lineno}: session index {session_text!r} is not an integer") from None
    if session_index < 1:
        raise ParseError(f"line {lineno}: session index must be >= 1")
    syllable_set = syllable_set.lower()
    if syllable_set not in SYLLABLE_SETS:
        raise ParseError(f"line {lineno}: unknown syllable set {syllable_set!r}")
    class_label = _parse_optional_binary(parts[5].strip(), "class label", lineno) if len(parts) > 5 else None
    expert_mark = _parse_optional_binary(parts[6].strip(), "expert mark", lineno) if len(parts) > 6 else None
    return SyllableRecord(patient_id, session_index, syllable_id, syllable_set, audio_path, class_label, expert_mark)


def _check_labels(records):
    for rec in records:
        if rec.session_index == 1 and rec.class_label != 1:
            raise ValidationError(f"record {rec.key()}: session 1 must carry class label 1")
        if rec.session_index == 2 and rec.class_label != 0:
            raise ValidationError(f"record {rec.key()}: session 2 must carry class label 0")
        if rec.session_index >= 3 and rec.class_label is not None:
            raise ValidationError(f"record {rec.key()}: rehabilitation sessions carry no class label")


def _check_unique(records):
    seen = set()
    for rec in records:
        if rec.key() in seen:
            raise ValidationError(f"duplicate record {rec.key()}")
        seen.add(rec.key())


def _incomplete_pairs(records):
    """Missing (patient, session, syllable) triples in the session 1/2 pairing."""
    by_patient = {}
    for rec in records:
        if rec.session_index in (1, 2):
            by_patient.setdefault(rec.patient_id, {1: set(), 2: set()})[rec.session_index].add(rec.syllable_id)
    missing = []
    for patient_id in sorted(by_patient):
        sess = by_patient[patient_id]
        for syllable_id in sorted(sess[1] - sess[2]):
            missing.append((patient_id, 2, syllable_id))
        for syllable_id in sorted(sess[2] - sess[1]):
            missing.append((patient_id, 1, syllable_id))
    return missing


def _check_files(manifest):
    for rec in manifest.records:
        full = manifest.resolve_audio(rec)
        if not os.path.isfile(full):  # False, not an error, for a name the OS refuses
            raise ValidationError(f"record {rec.key()}: audio file {full} does not exist")


def load_manifest(path, drop_incomplete=False):
    """Parse and validate a manifest file.

    Patients whose session 1 and session 2 syllable sets disagree are a
    validation error; with drop_incomplete=True they are dropped from the
    manifest instead (logged), matching how incomplete patients are excluded
    from training cohorts.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"manifest {path} does not exist")
    sample_rate = None
    patient_sex = {}
    records = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#sample_rate_hz="):
            try:
                sample_rate = int(line.split("=", 1)[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad sample rate in {line!r}") from None
            continue
        if line.startswith("#patient"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith("sex="):
                raise ParseError(f"line {lineno}: expected '#patient <id> sex=<m|f>'")
            sex = parts[2][4:]
            if sex not in ("m", "f"):
                raise ParseError(f"line {lineno}: sex must be m or f, got {sex!r}")
            patient_sex[parts[1]] = sex
            continue
        if line.startswith("#"):
            continue  # comment
        records.append(_parse_record(line, lineno))
    if sample_rate is None or sample_rate <= 0:
        raise ParseError(f"{path}: missing or invalid '#sample_rate_hz=<int>' header")

    _check_unique(records)
    _check_labels(records)
    missing = _incomplete_pairs(records)
    if missing:
        if not drop_incomplete:
            triple = missing[0]
            raise ValidationError(
                f"patient {triple[0]} is missing session {triple[1]} recording of "
                f"syllable {triple[2]!r} ({len(missing)} missing in total)"
            )
        dropped = {m[0] for m in missing}
        logger.warning("dropping incomplete patients from manifest: %s", ", ".join(sorted(dropped)))
        records = [r for r in records if r.patient_id not in dropped]
        patient_sex = {p: s for p, s in patient_sex.items() if p not in dropped}
    manifest = Manifest(tuple(records), sample_rate, patient_sex, path.parent)
    _check_files(manifest)
    return manifest


def save_manifest(manifest, path):
    """Write a manifest back to disk in the canonical text form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"#sample_rate_hz={manifest.sample_rate_hz}"]
    for patient_id in sorted(manifest.patient_sex):
        lines.append(f"#patient {patient_id} sex={manifest.patient_sex[patient_id]}")
    for rec in manifest.records:
        fields = [rec.patient_id, str(rec.session_index), rec.syllable_id, rec.syllable_set, rec.audio_path]
        if rec.class_label is not None or rec.expert_mark is not None:
            fields.append("" if rec.class_label is None else str(rec.class_label))
        if rec.expert_mark is not None:
            fields.append(str(rec.expert_mark))
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def filter_cohort(manifest, cohort):
    """Restrict a manifest to one cohort (identity for the 'all' cohort)."""
    if cohort.kind == COHORT_ALL:
        return manifest
    if cohort.kind == COHORT_INDIVIDUAL:
        keep = {cohort.arg}
    elif cohort.kind == COHORT_SEX:
        keep = {p for p, s in manifest.patient_sex.items() if s == cohort.arg}
    else:
        raise ValueError(f"unknown cohort kind {cohort.kind!r}")
    records = tuple(r for r in manifest.records if r.patient_id in keep)
    if not records:
        raise EmptyCohort(f"cohort {cohort} matches no patient")
    sex = {p: s for p, s in manifest.patient_sex.items() if p in keep}
    return Manifest(records, manifest.sample_rate_hz, sex, manifest.root)


def _train_count(n, ratio):
    # round-half-up keeps each class within one fragment of the ratio
    return int(n * ratio + 0.5)


def split_fragments(n_fragments, labels, ratio=0.8, seed=0):
    """Deterministic stratified train/test split over fragment indices.

    Each class contributes round(ratio * class size) fragments to the train
    side, so the train share of every class is within one fragment of the
    requested ratio.
    """
    labels = np.asarray(labels)
    if n_fragments < 5:
        raise DegenerateInput(f"need at least 5 fragments to split, got {n_fragments}")
    if labels.shape != (n_fragments,):
        raise ValueError("labels length must equal n_fragments")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateInput("both classes must be present to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        order = rng.permutation(idx.size)
        k = _train_count(idx.size, ratio)
        train_parts.append(idx[order[:k]])
        test_parts.append(idx[order[k:]])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitAssignment(train, test, seed)


def split_by_groups(group_keys, labels, ratio=0.8, seed=0):
    """Stratified split at recording granularity.

    Fragments sharing a group key (one recording) land on the same side,
    preventing leakage between train and test. Returns fragment-level
    indices like split_fragments.
    """
    labels = np.asarray(labels)
    if len(group_keys) != labels.size:
        raise ValueError("group_keys length must equal labels length")
    order = []  # unique keys in order of first appearance
    members = {}
    for i, key in enumerate(group_keys):
        if key not in members:
            members[key] = []
            order.append(key)
        members[key].append(i)
    group_labels = []
    for key in order:
        lab = {int(labels[i]) for i in members[key]}
        if len(lab) != 1:
            raise ValueError(f"group {key!r} mixes class labels")
        group_labels.append(lab.pop())
    if len(order) < 5:
        raise DegenerateInput(f"need at least 5 recordings to split by group, got {len(order)}")
    group_split = split_fragments(len(order), np.array(group_labels), ratio=ratio, seed=seed)
    train = np.sort(np.concatenate([members[order[g]] for g in group_split.train_indices]).astype(np.int64))
    test = np.sort(np.concatenate([members[order[g]] for g in group_split.test_indices]).astype(np.int64))
    return SplitAssignment(train, test, seed)
