"""Pronunciation-quality scoring for speech rehabilitation.

A binary classifier (two LSTM layers feeding three dense layers) is trained
on a patient's pre-operation and immediately-post-operation syllable
recordings; its class-membership probability then serves as a continuous
quality score for later rehabilitation sessions.
"""

from .audio import SampleBuffer, read_wav, write_wav
from .dataset import (Cohort, Manifest, SplitAssignment, SyllableRecord,
                      filter_cohort, load_manifest, save_manifest,
                      split_by_groups, split_fragments, split_rows)
from .dsp import (DspConfig, Fragment, Spectrogram, gate_silence, log_compress,
                  pipeline, slice_fragments, stft_magnitude)
from .nn import (AdamState, Architecture, Model, TrainConfig, TrainTrace,
                 adam_step, backward, bce_loss, forward_batch, hard_sigmoid,
                 init_params, load_model, overlap, save_model, train)
from .scoring import (EvalGrid, EvalReport, ScoreGrid, ScoreReport, evaluate,
                      evaluate_cohorts, pearson, render, score_session,
                      score_sessions, session_probabilities)
from .synth import SynthSpec, generate_corpus, generate_trajectory, synth_syllable

__version__ = "0.1.0"
