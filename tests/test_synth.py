import numpy as np
import pytest

from syllascore import corpus, nn, scoring
from syllascore.dataset import load_manifest, split_fragments
from syllascore.dsp import DspConfig
from syllascore.errors import ValidationError
from syllascore.synth import (SynthSpec, generate_corpus, generate_trajectory,
                              severity_for_session, synth_syllable)


def _band_tilt_db_per_octave(x, fs):
    """Independent tilt probe: regress band energy (dB) on octave index.

    Third-octave-wide windows around octave-spaced centers keep each
    measurement close to its nominal frequency.
    """
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), 1.0 / fs)
    centers = [250.0, 500.0, 1000.0, 2000.0, 4000.0]
    half_width = 2.0 ** (1.0 / 6.0)
    levels = []
    for c in centers:
        band = (freqs >= c / half_width) & (freqs < c * half_width)
        levels.append(10.0 * np.log10(spectrum[band].sum()))
    octaves = np.log2(np.asarray(centers) / centers[0])
    slope = np.polyfit(octaves, levels, 1)[0]
    return slope


class TestGenerateCorpus:
    def test_counts_and_validity(self, tmp_path):
        spec = SynthSpec(n_patients=2, syllables_per_set=10, duration_s=0.5, seed=3)
        manifest = generate_corpus(spec, tmp_path)
        assert len(manifest.records) == 2 * 10 * 2
        assert len(list((tmp_path / "audio").glob("*.wav"))) == 40
        # survives a full strict reload
        again = load_manifest(tmp_path / "manifest.txt")
        assert again.records == manifest.records
        assert set(manifest.patient_sex) == {"P001", "P002"}

    def test_determinism_byte_identical(self, tmp_path):
        spec = SynthSpec(n_patients=1, syllables_per_set=3, duration_s=0.5, seed=7)
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_corpus(spec, a)
        generate_corpus(spec, b)
        assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()
        for wav in sorted((a / "audio").glob("*.wav")):
            assert wav.read_bytes() == (b / "audio" / wav.name).read_bytes()

    def test_different_seed_changes_audio(self, tmp_path):
        a = generate_corpus(SynthSpec(n_patients=1, syllables_per_set=1, duration_s=0.5, seed=1), tmp_path / "a")
        b = generate_corpus(SynthSpec(n_patients=1, syllables_per_set=1, duration_s=0.5, seed=2), tmp_path / "b")
        wav_a = (tmp_path / "a" / a.records[0].audio_path).read_bytes()
        wav_b = (tmp_path / "b" / b.records[0].audio_path).read_bytes()
        assert wav_a != wav_b

    def test_peak_bounded(self):
        spec = SynthSpec(duration_s=0.5, seed=11)
        for severity in (0.0, 0.5, 1.0):
            buf = synth_syllable(spec, "P001", 3, "s01", severity)
            assert np.max(np.abs(buf.samples)) <= 1.0


class TestSpec:
    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 30.001},
        {"duration_s": 1e300},
        {"sample_rate_hz": 192001},
        {"sample_rate_hz": 2**32},
    ])
    def test_refuses_recordings_too_large_to_render(self, kwargs):
        with pytest.raises(ValueError, match="at most"):
            SynthSpec(**kwargs)

    def test_largest_recording_is_accepted(self):
        SynthSpec(duration_s=30.0, sample_rate_hz=192000)  # constructing renders nothing

    @pytest.mark.parametrize("kwargs", [
        {"snr_clean_db": 200.001},
        {"snr_worst_db": -200.001},
        {"snr_clean_db": 1e6},  # 10 ** (snr / 20) overflowed a Python float
        {"snr_worst_db": -6254.0},  # the noise gain overflowed to inf
    ])
    def test_refuses_snr_beyond_200_db(self, kwargs):
        with pytest.raises(ValueError, match=r"SNRs must lie in \[-200, 200\] dB"):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("severity", [0.0, 1.0])
    def test_extreme_snrs_render_finite_audio(self, severity):
        spec = SynthSpec(duration_s=0.5, snr_clean_db=200.0, snr_worst_db=-200.0)
        assert np.isfinite(synth_syllable(spec, "P001", 3, "s01", severity).samples).all()


class TestSeverityModel:
    def test_session_severities(self):
        assert severity_for_session(1) == 0.0
        assert severity_for_session(2) == 1.0
        with pytest.raises(ValueError):
            severity_for_session(3)

    def test_severity_out_of_range(self):
        spec = SynthSpec(duration_s=0.5)
        with pytest.raises(ValueError):
            synth_syllable(spec, "P001", 3, "s01", 1.5)

    def test_tilt_knob_measured_from_output(self):
        # isolate the tilt: same record (same excitation draw), no formant
        # drift, no articulation jitter, noise pushed far below the signal
        spec = SynthSpec(duration_s=0.8, formant_shift_hz=0.0, tilt_db_per_octave=9.0,
                         snr_clean_db=120.0, snr_worst_db=120.0,
                         articulation_spread=0.0, seed=13)
        clean = synth_syllable(spec, "P001", 3, "s01", 0.0)
        tilted = synth_syllable(spec, "P001", 3, "s01", 1.0)
        slope_clean = _band_tilt_db_per_octave(clean.samples, spec.sample_rate_hz)
        slope_tilted = _band_tilt_db_per_octave(tilted.samples, spec.sample_rate_hz)
        assert slope_clean - slope_tilted == pytest.approx(9.0, abs=1.0)

    def test_zero_severity_matches_reference_session_statistics(self):
        # a severity-0 rehabilitation recording follows the same signal model
        # as session 1: identical band profile up to the fresh noise draw
        spec = SynthSpec(duration_s=0.8, articulation_spread=0.0, seed=17)
        ref = synth_syllable(spec, "P001", 1, "s01", 0.0)
        rehab = synth_syllable(spec, "P001", 5, "s01", 0.0)
        a = _band_tilt_db_per_octave(ref.samples, spec.sample_rate_hz)
        b = _band_tilt_db_per_octave(rehab.samples, spec.sample_rate_hz)
        assert a == pytest.approx(b, abs=1.0)
        assert not np.array_equal(ref.samples, rehab.samples)


class TestGenerateTrajectory:
    def test_appends_unlabeled_sessions(self, tmp_path):
        spec = SynthSpec(n_patients=1, syllables_per_set=3, duration_s=0.5, seed=19)
        generate_corpus(spec, tmp_path)
        manifest, severities = generate_trajectory(spec, tmp_path, "P001", [0.8, 0.5, 0.2])
        assert manifest.sessions("P001") == [1, 2, 3, 4, 5]
        assert severities == {3: 0.8, 4: 0.5, 5: 0.2}
        rehab = [r for r in manifest.records if r.session_index >= 3]
        assert len(rehab) == 9
        assert all(r.class_label is None for r in rehab)
        assert all(r.expert_mark is None for r in rehab)

    def test_expert_marks_rule(self, tmp_path):
        spec = SynthSpec(n_patients=1, syllables_per_set=4, duration_s=0.5,
                         articulation_spread=0.0, seed=23)
        generate_corpus(spec, tmp_path)
        manifest, _ = generate_trajectory(spec, tmp_path, "P001", [0.9, 0.1],
                                          expert_marks=True)
        rehab = [r for r in manifest.records if r.session_index >= 3]
        assert all(r.expert_mark in (0, 1) for r in rehab)
        # without articulation jitter the rule reduces to the session severity
        for r in rehab:
            assert r.expert_mark == (1 if r.session_index == 4 else 0)

    def test_unknown_patient(self, tmp_path):
        spec = SynthSpec(n_patients=1, syllables_per_set=2, duration_s=0.5, seed=29)
        generate_corpus(spec, tmp_path)
        with pytest.raises(ValidationError):
            generate_trajectory(spec, tmp_path, "P999", [0.5])

    def test_bad_severity(self, tmp_path):
        spec = SynthSpec(n_patients=1, syllables_per_set=2, duration_s=0.5, seed=31)
        generate_corpus(spec, tmp_path)
        with pytest.raises(ValueError):
            generate_trajectory(spec, tmp_path, "P001", [0.5, 1.2])


class TestSeparability:
    def test_monotone_in_degradation_magnitude(self, tmp_path):
        """Stronger degradation can only make the two classes easier to tell apart."""
        arch = nn.Architecture(lstm1_units=32, lstm2_units=16, dense1_units=8, dense2_units=4)
        accuracies = {}
        settings = {
            "weak": dict(formant_shift_hz=40.0, tilt_db_per_octave=0.5,
                         snr_clean_db=25.0, snr_worst_db=22.0),
            "strong": dict(formant_shift_hz=300.0, tilt_db_per_octave=9.0,
                           snr_clean_db=40.0, snr_worst_db=10.0),
        }
        for name, knobs in settings.items():
            spec = SynthSpec(n_patients=1, syllables_per_set=8, duration_s=0.5,
                             seed=37, **knobs)
            manifest = generate_corpus(spec, tmp_path / name)
            X, y, _ = corpus.collect_training_fragments(manifest, DspConfig())
            split = split_fragments(len(y), y, ratio=0.8, seed=37)
            model, _ = nn.train(X, y, split,
                                nn.TrainConfig(epochs=20, batch_size=8, seed=37),
                                arch=arch, standardize=True)
            p = nn.forward_batch(model, model.standardize(X))
            accuracies[name] = scoring.evaluate(p, y, split).test_accuracy
        assert accuracies["strong"] >= accuracies["weak"]
        assert accuracies["strong"] >= 0.9
