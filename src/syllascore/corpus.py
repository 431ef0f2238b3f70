"""Bridge between the manifest catalog and the network's fragment arrays.

Records are processed in canonical (patient, session, syllable) order, so
the fragment arrays, and everything trained from them, do not depend on the
line order of the manifest file.
"""

import logging

import numpy as np

from .audio import read_wav
from .dsp import pipeline
from .errors import DegenerateInput

logger = logging.getLogger(__name__)


def _sorted_records(manifest, sessions):
    recs = [r for r in manifest.records if r.session_index in sessions]
    return sorted(recs, key=lambda r: (r.patient_id, r.session_index, r.syllable_id))


def _record_fragments(manifest, rec, cfg):
    buf = read_wav(manifest.resolve_audio(rec), expected_rate_hz=manifest.sample_rate_hz)
    return pipeline(buf, cfg)


def collect_training_fragments(manifest, cfg):
    """Fragments plus labels for the two labeled sessions.

    Returns (X, y, groups): X is (N, 8, 513) float64, y the per-fragment
    binary labels, and groups the per-fragment recording key (used for
    leakage-free splitting at recording granularity). Recordings that gate
    away entirely contribute nothing and are logged.
    """
    stacks, labels, groups = [], [], []
    for rec in _sorted_records(manifest, sessions=(1, 2)):
        frags = _record_fragments(manifest, rec, cfg)
        if not frags:
            logger.warning("recording %s produced no fragments (gated or too short)", rec.key())
            continue
        for frag in frags:
            stacks.append(frag.values)
            labels.append(rec.class_label)
            groups.append(rec.key())
    if not stacks:
        raise DegenerateInput("no fragments survived preprocessing")
    return np.stack(stacks), np.asarray(labels, dtype=np.float64), groups


def collect_session_fragments(manifest, patient_id, session_index, cfg):
    """Per-syllable fragment stacks for one session of one patient.

    Syllables whose recording yields no fragments map to an empty array so
    scoring can report them as missing.
    """
    out = {}
    for rec in _sorted_records(manifest, sessions=(session_index,)):
        if rec.patient_id != patient_id:
            continue
        frags = _record_fragments(manifest, rec, cfg)
        if frags:
            out[rec.syllable_id] = np.stack([f.values for f in frags])
        else:
            out[rec.syllable_id] = np.empty((0, 8, 513))
    return out


def scoreable_sessions(manifest, patient_id=None):
    """(patient, session) pairs of rehabilitation sessions, canonical order."""
    pairs = sorted(
        {
            (r.patient_id, r.session_index)
            for r in manifest.records
            if r.session_index >= 3 and (patient_id is None or r.patient_id == patient_id)
        }
    )
    return pairs


def expert_marks(manifest, patient_id, session_index):
    """syllable_id -> expert mark for one session, omitting unmarked records."""
    return {
        r.syllable_id: r.expert_mark
        for r in manifest.records
        if r.patient_id == patient_id and r.session_index == session_index and r.expert_mark is not None
    }
