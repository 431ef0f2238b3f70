"""Bridge between the manifest catalog and the network's fragment arrays.

Records are processed in canonical (patient, session, syllable) order, so
the fragment arrays, and everything trained from them, do not depend on the
line order of the manifest file.
"""

import logging

import numpy as np

from .audio import read_wav
from .dsp import pipeline
from .errors import DegenerateInput, EmptySession

logger = logging.getLogger(__name__)


def _sorted_records(manifest, sessions):
    recs = [r for r in manifest.records if r.session_index in sessions]
    return sorted(recs, key=lambda r: (r.patient_id, r.session_index, r.syllable_id))


def _stack_records(manifest, records, cfg):
    """The records' fragments as one (N, 8, 513) float64 stack, in record
    order, and the rows each record gave (0 for one that gated away); the
    stack is None when no record gave any."""
    rows, counts = [], []
    for rec in records:
        frags = pipeline(read_wav(manifest.resolve_audio(rec), expected_rate_hz=manifest.sample_rate_hz), cfg)
        rows.extend(frag.values for frag in frags)
        counts.append(len(frags))
    return (np.stack(rows) if rows else None), counts


def collect_training_fragments(manifest, cfg):
    """Fragments plus labels for the two labeled sessions.

    Returns (X, y, groups): X is (N, 8, 513) float64, y the per-fragment
    binary labels, and groups the per-fragment recording key (used for
    leakage-free splitting at recording granularity). Recordings that gate
    away entirely contribute nothing and are logged.
    """
    records = _sorted_records(manifest, sessions=(1, 2))
    X, counts = _stack_records(manifest, records, cfg)
    labels, groups = [], []
    for rec, n in zip(records, counts):
        if not n:
            logger.warning("recording %s produced no fragments (gated or too short)", rec.key())
        labels += [rec.class_label] * n
        groups += [rec.key()] * n
    if X is None:
        raise DegenerateInput("no fragments survived preprocessing")
    return X, np.asarray(labels, dtype=np.float64), groups


def collect_session_fragments(manifest, patient_id, session_index, cfg):
    """One session's fragments: (X, records, counts).

    X stacks the fragments of the session's records (canonical order), and
    counts[i] is how many rows records[i] gave; 0 marks a syllable whose
    recording gated away. A session with no fragments at all is EmptySession.
    """
    records = [r for r in _sorted_records(manifest, sessions=(session_index,)) if r.patient_id == patient_id]
    X, counts = _stack_records(manifest, records, cfg)
    if X is None:
        raise EmptySession(f"session {session_index} of patient {patient_id} has no fragments")
    return X, records, counts


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
