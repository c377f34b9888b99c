"""Span tracer that wraps agg's public callables from outside the package.

A wrapped callable records one span per call: name, start, end, the span
that was open when it was called (its parent), the operation it ran under,
and a work amount (1 unless the wrapper says otherwise). A counted callable
only increments a counter keyed by (name, operation). Spans stay in memory
until write_spans(). restore() undoes every patch, newest first; the tracer
is a context manager that restores on exit, also when the traced code raises.

Names are patched where agg looks them up: a module function that another
module imported by name is patched on the importing module, a method on
its class.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, op, work]
        self.counts = Counter()    # (name, op) -> calls
        self.op = ("setup",)       # the operation new spans belong to
        self.origin = time.perf_counter()
        self._stack = []
        self._patches = []

    def span(self, owner, attr, name, work=None):
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                   work(*args, **kwargs) if work else 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        self._patch(owner, attr, orig, traced)

    def count(self, owner, attr, name, when=None):
        orig = getattr(owner, attr)
        counts = self.counts
        tracer = self

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if when is None or when(*args, **kwargs):
                counts[name, tracer.op] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, orig, counted)

    def _patch(self, owner, attr, orig, new):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------------
    def self_times(self):
        """[(name, op, work, self seconds)]: each span's duration minus the
        time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, op, work, (t1 - t0) - c)
                for (name, t0, t1, _, op, work), c in zip(self.spans, child)]

    def write_spans(self, path):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op, work) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": t0 - self.origin, "end_s": t1 - self.origin,
                    "op": list(op), "work": work}) + "\n")


def instrument(tracer, agg):
    """Wrap every agg callable the per-layer metrics need."""
    ad, nn, grammar, adversarial = agg.autodiff, agg.nn, agg.grammar, agg.adversarial
    synthdata, metrics, cli = agg.synthdata, agg.metrics, agg.cli
    is_disc = lambda opt: opt.params[0].name.startswith("d.")

    tracer.count(ad, "_node", "autodiff.node")
    tracer.span(ad, "backward", "autodiff.backward")
    tracer.span(nn.SGD, "step", "nn.sgd")
    tracer.span(nn.SGD, "skip", "nn.sgd")
    tracer.count(nn.SGD, "step", "adversarial.d_step", when=is_disc)
    tracer.count(nn.SGD, "skip", "adversarial.d_skip", when=is_disc)
    tracer.span(cli, "load_checkpoint", "nn.load_checkpoint")
    model = grammar.GrammarModel
    for method in ("encode_start", "unroll_batch", "unroll", "rule_tables",
                   "sample_rule_paths"):
        tracer.span(model, method, f"grammar.{method}")
    tracer.count(model, "rule_tables", "grammar.rule_tables")
    tracer.span(adversarial, "teacher_forced_states", "adversarial.teacher_forced_states")
    tracer.span(adversarial.Discriminator, "__call__", "adversarial.disc_forward")
    tracer.span(adversarial, "_pruned_loglik", "adversarial.pruned_loglik")
    tracer.span(synthdata, "sample_sequence", "synthdata.sample_sequence",
                work=lambda grammar, length, rng: length)
    tracer.span(cli, "load_dataset", "synthdata.load_dataset")
    tracer.span(cli, "save_dataset", "synthdata.save_dataset")
    tracer.span(metrics, "exact_ngram_distribution", "synthdata.exact_ngram")
    tracer.span(cli, "sample_model_futures", "metrics.sample_model_futures")
    tracer.span(metrics, "empirical_ngram_distribution", "metrics.empirical_ngram")
    tracer.span(cli, "main", "cli.main")
