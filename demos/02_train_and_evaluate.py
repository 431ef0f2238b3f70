#!/usr/bin/env python3
"""Train the classifier on one synthetic patient and inspect the result.

Sessions 1 (pre-operation, class 1) and 2 (post-operation, class 0) form the
training corpus; 80% of the fragments train the network and 20% measure it.
"""

import tempfile
from pathlib import Path

from syllascore import corpus, nn, scoring
from syllascore.dataset import split_fragments
from syllascore.dsp import DspConfig
from syllascore.synth import SynthSpec, generate_corpus

work = Path(tempfile.mkdtemp(prefix="syllascore_demo_"))
print("Working under", work)

print("\nGenerating the corpus: 1 patient x 20 syllables x 2 sessions...")
spec = SynthSpec(n_patients=1, syllables_per_set=20, seed=1)
manifest = generate_corpus(spec, work)
print(f"  {len(manifest.records)} recordings, patient sexes {manifest.patient_sex}")

cfg = DspConfig()
X, y, groups = corpus.collect_training_fragments(manifest, cfg)
print(f"  {X.shape[0]} fragments of shape {X.shape[1:]}, class balance {y.mean():.2f}")

split = split_fragments(len(y), y, ratio=0.8, seed=1)
print(f"  split: {split.train_indices.size} train / {split.test_indices.size} test")

print("\nTraining (two LSTM layers + three dense layers, Adam, 15 epochs)...")
config = nn.TrainConfig(epochs=15, seed=1)
model, trace = nn.train(X, y, split, config, dsp_config=cfg)
print(scoring.to_text(trace))

print("\nEvaluation report:")
report = scoring.evaluate(nn.forward_batch(model, model.standardize(X)), y, split, cohort="individual:P001")
print(scoring.to_text(report))

model_path = work / "model.json"
nn.save_model(model, model_path)
reloaded = nn.load_model(model_path)
print(f"\nModel stored at {model_path} "
      f"({model_path.stat().st_size / 1e6:.1f} MB, {model.arch.param_count} parameters)")
p_stored = nn.forward_batch(reloaded, X[:1])[0]
nn.save_model(reloaded, work / "model_again.json")
p_again = nn.forward_batch(nn.load_model(work / "model_again.json"), X[:1])[0]
print("  round trip at stored precision is exact:", p_stored == p_again)
print("  the trained model scores as its file does:", nn.forward_batch(model, X[:1])[0] == p_stored)
