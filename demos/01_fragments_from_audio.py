#!/usr/bin/env python3
"""Walk one syllable recording through the spectrogram front end.

The classifier never sees audio directly; it sees 8x513 log-magnitude
spectrogram fragments. This script renders a single synthetic syllable and
prints what each stage of the chain does to it.
"""

import numpy as np

from syllascore import dsp
from syllascore.synth import SynthSpec, synth_syllable

spec = SynthSpec(duration_s=0.8, seed=42)
cfg = dsp.DspConfig()

print("Rendering one pre-operation-quality syllable (severity 0)...")
buf = synth_syllable(spec, "P001", 1, "s01", severity=0.0)
print(f"  {len(buf)} samples at {buf.sample_rate_hz} Hz "
      f"({len(buf) / buf.sample_rate_hz:.2f} s), peak {np.max(np.abs(buf.samples)):.3f}")

print("\nStage 1: short-time Fourier magnitudes")
spectrogram = dsp.stft_magnitude(buf, cfg)
print(f"  frame length {cfg.frame_len}, hop {cfg.hop}, window {cfg.window}")
print(f"  -> {spectrogram.n_frames} frames x {spectrogram.frames.shape[1]} bins")

print("\nStage 2: energy gate (drops frames below "
      f"{cfg.gate_ratio:g} of the loudest frame)")
gated = dsp.gate_silence(spectrogram, cfg)
print(f"  {spectrogram.n_frames} -> {gated.n_frames} frames "
      f"({spectrogram.n_frames - gated.n_frames} dropped at the fades)")

print("\nStage 3: log compression, floor", cfg.log_floor)
compressed = dsp.log_compress(gated, cfg)
print(f"  entry range [{compressed.frames.min():.2f}, {compressed.frames.max():.2f}] "
      "(log10 units)")

print("\nStage 4: slice into 8-frame fragments every", cfg.fragment_hop, "frames")
fragments = dsp.slice_fragments(compressed, cfg)
print(f"  -> {len(fragments)} fragments, each {fragments[0].values.shape}")

print("\nThe composed pipeline gives the same result in one call:")
same = dsp.pipeline(buf, cfg)
print(f"  pipeline(...) -> {len(same)} fragments, bit-identical:",
      all(np.array_equal(a.values, b.values) for a, b in zip(fragments, same)))

print("\nA severely degraded rendition of the same syllable for contrast:")
worst = synth_syllable(spec, "P001", 2, "s01", severity=1.0)
worst_frags = dsp.pipeline(worst, cfg)
mean_clean = np.mean([f.values.mean() for f in same])
mean_worst = np.mean([f.values.mean() for f in worst_frags])
print(f"  mean log-magnitude: clean {mean_clean:.2f} vs degraded {mean_worst:.2f}")
print("  (the degraded signal carries a darker spectrum plus a raised noise floor)")
