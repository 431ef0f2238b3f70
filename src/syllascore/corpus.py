"""Bridge between the manifest catalog and the network's fragment arrays.

Records are processed in canonical (patient, session, syllable) order, so
the fragment arrays, and everything trained from them, do not depend on the
line order of the manifest file. Each recording is read and cut only when
its turn comes, and one that gates away entirely is logged as it is read.
collect_training_fragments stacks both labeled sessions for train;
collect_session_fragments stacks one session, the unit that eval and score
send through the network.
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


def _read_fragments(manifest, records, cfg):
    """Yield each record's fragment list, in record order; the list is empty,
    and logged, for a recording that gated away."""
    for rec in records:
        frags = pipeline(read_wav(manifest.resolve_audio(rec), expected_rate_hz=manifest.sample_rate_hz), cfg)
        if not frags:
            logger.warning("recording %s produced no fragments (gated or too short)", rec.key())
        yield frags


def collect_training_fragments(manifest, cfg):
    """Fragments plus labels for the two labeled sessions.

    Returns (X, y, groups): X is (N, 8, 513) float64, y the per-fragment
    binary labels, and groups the per-fragment recording key (used for
    leakage-free splitting at recording granularity). Recordings that gate
    away entirely contribute nothing.
    """
    records = _sorted_records(manifest, sessions=(1, 2))
    rows, labels, groups = [], [], []
    for rec, frags in zip(records, _read_fragments(manifest, records, cfg)):
        rows += [frag.values for frag in frags]
        labels += [rec.class_label] * len(frags)
        groups += [rec.key()] * len(frags)
    if not rows:
        raise DegenerateInput("no fragments survived preprocessing")
    return np.stack(rows), np.asarray(labels, dtype=np.float64), groups


def collect_session_fragments(manifest, patient_id, session_index, cfg):
    """One session's fragments: (X, records, counts).

    X stacks the fragments of the session's records (canonical order), and
    counts[i] is how many rows records[i] gave; 0 marks a syllable whose
    recording gated away. A session with no fragments at all is EmptySession.
    """
    records = [r for r in _sorted_records(manifest, sessions=(session_index,)) if r.patient_id == patient_id]
    rows, counts = [], []
    for frags in _read_fragments(manifest, records, cfg):
        rows += [frag.values for frag in frags]
        counts.append(len(frags))
    if not rows:
        raise EmptySession(f"session {session_index} of patient {patient_id} has no fragments")
    return np.stack(rows), records, counts


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
