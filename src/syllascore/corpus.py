"""Bridge between the manifest catalog and the network's fragment arrays.

Records are processed in canonical (patient, session, syllable) order, so
the fragment arrays, and everything trained from them, do not depend on the
line order of the manifest file. Each recording is read and cut only when
its turn comes, and one that gates away entirely is logged as it is read.
collect_training_fragments stacks both labeled sessions for train, and
collect_session_fragments one session, the unit that eval and score send
through the network; labeled_rows labels the rows for train and eval alike.
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


def _read_stack(manifest, records, cfg):
    """Read and cut records in order: (X, counts), where X stacks every fragment (None if there is
    none) and counts[i] is how many records[i] gave (0, logged, for one that gated away)."""
    rows, counts = [], []
    for rec in records:
        frags = pipeline(read_wav(manifest.resolve_audio(rec), expected_rate_hz=manifest.sample_rate_hz), cfg)
        if not frags:
            logger.warning("recording %s produced no fragments (gated or too short)", rec.key())
        rows += [frag.values for frag in frags]
        counts.append(len(frags))
    return (np.stack(rows) if rows else None), counts


def labeled_rows(records, counts):
    """Per-row (y, groups) of a stack read from labeled records: the counts[i] rows of records[i]
    carry its class label (float64) and its key, the group a syllable split keeps on one side."""
    owners = [rec for rec, n in zip(records, counts) for _ in range(n)]
    return np.asarray([rec.class_label for rec in owners], dtype=np.float64), [rec.key() for rec in owners]


def collect_training_fragments(manifest, cfg):
    """Fragments plus labels for the two labeled sessions.

    Returns (X, y, groups): X is (N, 8, 513) float64 and (y, groups) its
    labeled_rows. Recordings that gate away entirely contribute nothing.
    """
    records = _sorted_records(manifest, sessions=(1, 2))
    X, counts = _read_stack(manifest, records, cfg)
    if X is None:
        raise DegenerateInput("no fragments survived preprocessing")
    return (X, *labeled_rows(records, counts))


def collect_session_fragments(manifest, patient_id, session_index, cfg):
    """One session's fragments: (X, records, counts).

    X stacks the fragments of the session's records (canonical order), and
    counts[i] is how many rows records[i] gave; 0 marks a syllable whose
    recording gated away. A session with no fragments at all is EmptySession.
    """
    records = [r for r in _sorted_records(manifest, sessions=(session_index,)) if r.patient_id == patient_id]
    X, counts = _read_stack(manifest, records, cfg)
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
