"""Spans and counts around calls into syllascore's public functions.

The tracer wraps module attributes from outside while it is installed and
restores them afterwards; nothing under src/ changes. Each wrapper records
a span (name, phase, operation, start, end, parent) in memory and, where
the call carries a count worth keeping, adds it to a counter at the same
boundary. Spans are written out once, when the run ends.

A wrapper is installed where the program looks the function up at call
time: `corpus.read_wav`, not `audio.read_wav`, because corpus imported the
name.
"""

import json
import os
import time
from collections import defaultdict

# (module, attribute, span name)
TARGETS = [
    ("synth", "generate_corpus", "synth.generate_corpus"),
    ("synth", "generate_trajectory", "synth.generate_trajectory"),
    ("synth", "write_wav", "audio.write_wav"),
    ("cli", "load_manifest", "dataset.load_manifest"),
    ("corpus", "collect_training_fragments", "corpus.collect_training_fragments"),
    ("corpus", "collect_session_fragments", "corpus.collect_session_fragments"),
    ("corpus", "read_wav", "audio.read_wav"),
    ("corpus", "pipeline", "dsp.pipeline"),
    ("dsp", "stft_magnitude", "dsp.stft_magnitude"),
    ("dsp", "gate_silence", "dsp.gate_silence"),
    ("dsp", "log_compress", "dsp.log_compress"),
    ("dsp", "slice_fragments", "dsp.slice_fragments"),
    ("nn", "train", "nn.train"),
    ("nn", "adam_step", "nn.adam_step"),
    ("nn", "forward_batch", "nn.forward_batch"),
    ("nn", "save_model", "nn.save_model"),
    ("nn", "load_model", "nn.load_model"),
    ("scoring", "score_session", "scoring.score_session"),
    ("scoring", "evaluate", "scoring.evaluate"),
    ("scoring", "render", "scoring.render"),
]


def _count_read(tracer, args, kwargs, result):
    tracer.add("audio.read_wav.mb", result.samples.size * 2 / 1e6)
    tracer.paths.add(str(args[0]))


def _count_gate(tracer, args, kwargs, result):
    tracer.add("dsp.frames_in", args[0].n_frames)
    tracer.add("dsp.frames_kept", result.n_frames)


def _count_slice(tracer, args, kwargs, result):
    tracer.add("dsp.fragments", len(result))


def _count_forward(tracer, args, kwargs, result):
    tracer.add("nn.forward_batch.fragments", len(args[1]))


def _count_stack(tracer, args, kwargs, result):
    tracer.add("corpus.fragment_stack_mb", result[0].nbytes / 1e6)


def _count_model_file(tracer, path):
    tracer.counts[(tracer.phase, "nn.model_file_kb")] = os.path.getsize(path) / 1024


def _capture_train(tracer, args, kwargs, result):
    """Keep nn.train's inputs and model for the replay of its private steps."""
    tracer.train_calls[tracer.phase] = (args, kwargs, result)


# span name -> hook(tracer, args, kwargs, result) run after the call returns
COUNTERS = {
    "audio.read_wav": _count_read,
    "dsp.gate_silence": _count_gate,
    "dsp.slice_fragments": _count_slice,
    "nn.forward_batch": _count_forward,
    "corpus.collect_training_fragments": _count_stack,
    "nn.save_model": lambda tracer, args, kwargs, result: _count_model_file(tracer, args[1]),
    "nn.load_model": lambda tracer, args, kwargs, result: _count_model_file(tracer, args[0]),
    "nn.train": _capture_train,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported syllascore module
        self.spans = []  # [name, phase, op, start, end, parent]
        self.counts = defaultdict(float)  # (phase, key) -> value
        self.train_calls = {}  # phase -> (args, kwargs, result) of nn.train
        self.paths = set()
        self.phase = None
        self.op = None
        self._stack = []
        self._originals = []
        self._t0 = time.perf_counter()

    def add(self, key, value):
        self.counts[(self.phase, key)] += value

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.phase, self.op, time.perf_counter() - self._t0, None,
                    self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter() - self._t0
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self, phase, op=None):
        """Start recording spans of the given phase ('setup' or 'op')."""
        self.phase, self.op = phase, op
        self.paths = set()
        for module_name, attr, name in TARGETS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        self.add("audio.read_wav.unique", len(self.paths))
        self.phase = self.op = None

    def totals(self, phase):
        """name -> (calls, busy seconds, self seconds) over one phase."""
        child_time = defaultdict(float)
        for name, ph, op, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, ph, op, start, end, parent) in enumerate(self.spans):
            if ph != phase:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out

    def write(self, path):
        doc = {
            "fields": ["name", "phase", "op", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counts": [[phase, key, value] for (phase, key), value in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
