"""Deterministic synthetic syllable corpus with a controllable degradation.

Stands in for clinical recordings so the whole pipeline can be exercised at
desk scale. Each syllable is a source-filter signal: an impulse train at a
per-patient fundamental driven through three per-syllable formant
resonators. A severity knob in [0, 1] degrades the signal the way surgery
degrades articulation in the data this mimics: formants drift, the spectrum
tilts darker, and the signal-to-noise ratio drops. Session 1 is severity 0
(the pre-operation reference, class 1), session 2 severity 1 (class 0);
rehabilitation sessions carry any severity the caller asks for. On top of
the session severity every recording gets a small articulation jitter
(articulation_spread), so a session is a distribution of qualities rather
than twenty identical ones.

Every random draw comes from a generator seeded by a hash of the corpus
seed and the record's identity, so files are byte-identical across runs and
independent of generation order.
"""

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .audio import SampleBuffer, write_wav
from .dataset import Manifest, SyllableRecord, load_manifest, save_manifest
from .errors import ValidationError

logger = logging.getLogger(__name__)

_EDGE_FADE_S = 0.05
_TILT_REF_HZ = 200.0
_PEAK = 0.95

_F1_RANGE = (300.0, 800.0)
_F2_RANGE = (1100.0, 2000.0)
_F3_RANGE = (2300.0, 3000.0)
_BW_RANGES = ((60.0, 120.0), (80.0, 160.0), (120.0, 240.0))


@dataclass(frozen=True)
class SynthSpec:
    """Corpus shape plus the per-class signal and degradation model."""

    n_patients: int = 1
    syllables_per_set: int = 20
    sample_rate_hz: int = 16000
    duration_s: float = 0.8
    f0_min_hz: float = 90.0
    f0_max_hz: float = 220.0
    formant_shift_hz: float = 300.0  # severity-1 displacement of every formant
    tilt_db_per_octave: float = 9.0  # severity-1 spectral tilt above 200 Hz
    snr_clean_db: float = 40.0
    snr_worst_db: float = 10.0
    articulation_spread: float = 0.3  # per-recording severity jitter half-width
    syllable_set: str = "problem90"
    seed: int = 0

    def __post_init__(self):
        floats = (self.duration_s, self.f0_min_hz, self.f0_max_hz, self.formant_shift_hz,
                  self.tilt_db_per_octave, self.snr_clean_db, self.snr_worst_db, self.articulation_spread)
        if not np.all(np.isfinite(floats)):
            raise ValueError("synthesis parameters must be finite")
        if self.n_patients < 1 or self.syllables_per_set < 1:
            raise ValueError("need at least one patient and one syllable")
        if self.sample_rate_hz < 8000:
            raise ValueError("sample rate must cover the formant range")
        if self.duration_s * self.sample_rate_hz < 2048:
            raise ValueError("syllables must span at least two analysis frames")
        if not 0 < self.f0_min_hz <= self.f0_max_hz:
            raise ValueError("bad fundamental range")
        if not 0.0 <= self.articulation_spread <= 0.4:
            raise ValueError("articulation_spread must be in [0, 0.4] to keep the classes apart")

    def patient_ids(self):
        return [f"P{k + 1:03d}" for k in range(self.n_patients)]

    def syllable_ids(self):
        return [f"s{k + 1:02d}" for k in range(self.syllables_per_set)]


def _stream(seed, *tags):
    """Independent, order-insensitive random stream for one record or attribute."""
    digest = hashlib.sha256("|".join([str(seed), *map(str, tags)]).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _patient_f0(spec, patient_id):
    rng = _stream(spec.seed, "f0", patient_id)
    return float(rng.uniform(spec.f0_min_hz, spec.f0_max_hz))


def _patient_sex(spec, patient_id):
    rng = _stream(spec.seed, "sex", patient_id)
    return "m" if rng.random() < 0.5 else "f"


def _syllable_formants(spec, syllable_id):
    rng = _stream(spec.seed, "formants", syllable_id)
    centers = [rng.uniform(*_F1_RANGE), rng.uniform(*_F2_RANGE), rng.uniform(*_F3_RANGE)]
    widths = [rng.uniform(*r) for r in _BW_RANGES]
    return centers, widths


def severity_for_session(session_index):
    """Class-defining severities: pre-operation 0, immediately post 1."""
    if session_index == 1:
        return 0.0
    if session_index == 2:
        return 1.0
    raise ValueError("rehabilitation sessions need an explicit severity")


def _render(spec, patient_id, session_index, syllable_id, severity):
    """Render one recording; returns (buffer, effective severity).

    The effective severity is the session severity plus a per-recording
    articulation jitter, clipped to [0, 1]: a patient does not hit exactly
    the same articulation quality on every syllable of a session, and the
    spread is what lets session scores vary smoothly between the two
    trained extremes.
    """
    if not 0.0 <= severity <= 1.0:
        raise ValueError(f"severity {severity} outside [0, 1]")
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_s * fs))
    rng = _stream(spec.seed, "record", patient_id, session_index, syllable_id)

    spread = spec.articulation_spread
    severity = float(np.clip(severity + rng.uniform(-spread, spread), 0.0, 1.0))
    f0 = _patient_f0(spec, patient_id) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    excitation = np.zeros(n)
    excitation[np.unique(np.arange(0.0, n, fs / f0).astype(int))] = 1.0

    centers, widths = _syllable_formants(spec, syllable_id)
    x = excitation
    for center, width in zip(centers, widths):
        center = min(center + severity * spec.formant_shift_hz, 0.45 * fs)
        r = np.exp(-np.pi * width / fs)
        theta = 2.0 * np.pi * center / fs
        x = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)

    fade = int(_EDGE_FADE_S * fs)
    envelope = np.ones(n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
    envelope[:fade] = ramp
    envelope[-fade:] = ramp[::-1]
    x = x * envelope

    if severity > 0.0 and spec.tilt_db_per_octave > 0.0:
        spectrum = np.fft.rfft(x)
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        octaves = np.log2(np.maximum(freqs, _TILT_REF_HZ) / _TILT_REF_HZ)
        spectrum *= 10.0 ** (-severity * spec.tilt_db_per_octave * octaves / 20.0)
        x = np.fft.irfft(spectrum, n)

    snr_db = spec.snr_clean_db - severity * (spec.snr_clean_db - spec.snr_worst_db)
    noise = rng.standard_normal(n)
    noise *= np.sqrt(np.mean(x * x)) / (10.0 ** (snr_db / 20.0)) / np.sqrt(np.mean(noise * noise))
    x = x + noise
    x *= _PEAK / np.max(np.abs(x))
    return SampleBuffer(x, fs), severity


def synth_syllable(spec, patient_id, session_index, syllable_id, severity):
    """Render one syllable recording at the given degradation severity."""
    return _render(spec, patient_id, session_index, syllable_id, severity)[0]


def _audio_relpath(patient_id, session_index, syllable_id):
    return f"audio/{patient_id}_{session_index}_{syllable_id}.wav"


def _write_record(spec, out_dir, patient_id, session_index, syllable_id, severity,
                  class_label, mark_rule=False):
    rel = _audio_relpath(patient_id, session_index, syllable_id)
    buf, effective = _render(spec, patient_id, session_index, syllable_id, severity)
    write_wav(Path(out_dir) / rel, buf)
    # the rule-based expert judges the articulation actually produced
    expert_mark = (1 if effective < 0.5 else 0) if mark_rule else None
    return SyllableRecord(patient_id, session_index, syllable_id, spec.syllable_set,
                          rel, class_label, expert_mark)


def generate_corpus(spec, out_dir):
    """Write the two labeled sessions for every patient; returns the Manifest.

    The manifest lands at <out_dir>/manifest.txt, audio under <out_dir>/audio/.
    """
    out_dir = Path(out_dir)
    records = []
    sex = {}
    for patient_id in spec.patient_ids():
        sex[patient_id] = _patient_sex(spec, patient_id)
        for session_index, class_label in ((1, 1), (2, 0)):
            severity = severity_for_session(session_index)
            for syllable_id in spec.syllable_ids():
                records.append(_write_record(spec, out_dir, patient_id, session_index,
                                             syllable_id, severity, class_label))
    manifest = Manifest(tuple(records), spec.sample_rate_hz, sex, out_dir)
    save_manifest(manifest, out_dir / "manifest.txt")
    logger.info("wrote %d recordings for %d patients to %s", len(records), spec.n_patients, out_dir)
    return load_manifest(out_dir / "manifest.txt")


def generate_trajectory(spec, out_dir, patient_id, severities, expert_marks=False):
    """Append rehabilitation sessions (3, 4, ...) at the given severities.

    Records carry no class label. With expert_marks=True each record gets a
    rule-generated binary expert mark: 1 when the recording's effective
    severity came out below 0.5 (pronounced acceptably), else 0.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.txt"
    manifest = load_manifest(manifest_path)
    if patient_id not in manifest.patients():
        raise ValidationError(f"patient {patient_id} is not in {manifest_path}")
    severities = [float(s) for s in severities]
    if any(not 0.0 <= s <= 1.0 for s in severities):
        raise ValueError("severities must lie in [0, 1]")
    existing = manifest.sessions(patient_id)
    start = max(existing + [2]) + 1
    new_records = []
    for offset, severity in enumerate(severities):
        session_index = start + offset
        for syllable_id in spec.syllable_ids():
            new_records.append(_write_record(spec, out_dir, patient_id, session_index,
                                             syllable_id, severity, None,
                                             mark_rule=expert_marks))
    merged = Manifest(manifest.records + tuple(new_records), manifest.sample_rate_hz,
                      manifest.patient_sex, manifest.root)
    save_manifest(merged, manifest_path)
    return load_manifest(manifest_path), {start + k: s for k, s in enumerate(severities)}
