"""The benchmark's three workloads.

Each runs in one process as a closed loop with one client and no threads:
the next operation starts when the previous one has returned. Inputs come
only from the workload seed. Work is done in segments, and every segment of
a workload repeats the same operations on the same inputs, so a run that
fits more segments measures the same population of operations. `run()`
performs one segment and returns its (kind, seconds) per operation, with
seconds None for an operation that was not timed, and the segment's
arithmetic fingerprint, which must be the same for every segment.

- recipe-adversarial: one operation is one train_adversarial iteration on
  the recipe recovery configuration of the acceptance suite.
- bimodal-likelihood: one operation is one train_grammar_only iteration on
  the branching-ablation configuration of the acceptance suite.
- recipe-cli: one operation is one in-process agg.cli.main request; the
  requests cycle synth -> generate -> evaluate against a checkpoint trained
  for a few iterations during set-up.

A training iteration is timed between consecutive calls of the trainer's
public per-iteration callback (checkpoint_fn for train_adversarial, on_log
with log_every=1 for train_grammar_only). The benchmark's own work inside
the callback is excluded, and so is the first iteration of a segment, which
also covers the trainer's set-up.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time

from agg import cli
from agg.adversarial import (Discriminator, DiscriminatorConfig, GrammarOnlyConfig,
                             TrainConfig, train_adversarial, train_grammar_only)
from agg.grammar import GrammarModel, activity_config
from agg.synthdata import build_preset_grammar, exact_ngram_distribution, sample_dataset

import checks

LENGTH = 12

# tests/test_acceptance.py RECOVERY_KW, logged every iteration
RECOVERY = dict(iterations=5000, batch_size=32, prefix_len=4, lr0=0.02,
                d_loss_floor=0.7, entropy_weight=0.0, ema_decay=0.999,
                tau_end=0.5, log_every=1)
# tests/test_acceptance.py ablation arm with branching (topk_mask=4)
ABLATION = dict(iterations=800, batch_size=32, prefix_len=2, lr0=0.02,
                k_cap=4, max_paths=64, log_every=1)


class _Stop(Exception):
    """Raised from a trainer callback to end the loop between iterations."""


def _digest(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


class _Training:
    """A trainer; one operation is one iteration, one segment is the first
    `segment` iterations of a training run from freshly built models."""

    preset = num_sequences = None
    loss_keys = ()
    segment = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self._models = None

    def setup(self):
        grammar = build_preset_grammar(self.preset)
        self.dataset = sample_dataset(grammar, self.num_sequences, LENGTH, seed=self.seed)
        self._models = self.build()

    def run(self, tally, label="run", tracer=None):
        """Run one segment; returns its operations and fingerprint (a digest
        of every logged row and of the parameters at the end)."""
        models, self._models = self._models or self.build(), None
        ops, rows = [], []
        last = reason = None

        def on_row(row):
            nonlocal reason
            rows.append(row)
            try:
                checks.check_loss_row(row, self.loss_keys)
            except checks.CheckFailed as e:
                reason = str(e)

        def end_iteration():
            nonlocal last, reason
            now = time.perf_counter()
            ops.append(("iter", None if last is None else now - last))
            tally.record(reason)
            reason = None
            if len(ops) == self.segment:
                raise _Stop
            if tracer is not None:
                tracer.op = (label, "iter", len(ops))
            last = time.perf_counter()

        if tracer is not None:
            tracer.op = (label, "iter", 0)
        try:
            self.train(models, on_row, end_iteration)
        except _Stop:
            pass
        except Exception as e:   # noqa: BLE001 - counted as a failed iteration
            ops.append(("iter", None))
            tally.record(f"{type(e).__name__}: {e}")
        params = {name: p.value for m in models for name, p in m.named_parameters().items()}
        try:
            checks.check_params_finite(params)
        except checks.CheckFailed as e:
            tally.fail_last(str(e))
        return ops, _digest(json.dumps(rows, sort_keys=True),
                            *(name.encode() + params[name].tobytes() for name in sorted(params)))

    def named_metrics(self, ops):
        # iter_ms.p90 is the gated op_ms.p90
        times = [s * 1e3 for _, s in ops if s is not None]
        return {"iter_ms.p50": (statistics.median(times), "ms")}


class RecipeAdversarial(_Training):
    preset, num_sequences = "recipe", 10**4
    loss_keys = ("d_loss", "g_loss")
    segment = 100

    def build(self):
        model = GrammarModel(activity_config(6), seed=self.seed)
        disc = Discriminator(6, model.config.d_nonterminal,
                             DiscriminatorConfig(conv_channels=(16, 32, 16)),
                             seed=self.seed + 1)
        return model, disc

    def train(self, models, on_row, end_iteration):
        model, disc = models
        train_adversarial(self.dataset, model, disc, TrainConfig(seed=self.seed, **RECOVERY),
                          on_log=on_row, checkpoint_fn=lambda it: end_iteration())


class BimodalLikelihood(_Training):
    preset, num_sequences = "bimodal", 2000
    loss_keys = ("nll",)
    segment = 40

    def build(self):
        return (GrammarModel(activity_config(3, topk_mask=4), seed=self.seed),)

    def train(self, models, on_row, end_iteration):
        def on_log(row):
            on_row(row)
            end_iteration()

        train_grammar_only(self.dataset, models[0],
                           GrammarOnlyConfig(seed=self.seed, **ABLATION), on_log=on_log)


class RecipeCli:
    """In-process CLI requests cycling synth -> generate -> evaluate."""

    KINDS = ("synth", "generate", "evaluate")
    NUM_SEQUENCES = 10**4
    NUM_PREFIXES, K = 100, 10                     # generate
    EVAL_PREFIXES, SAMPLES, HORIZONS = 1000, 10, (4, 8, 12)
    CHECKPOINT_ITERS = 20
    # work per request, for the throughput figures
    WORK = {"synth": NUM_SEQUENCES * LENGTH, "generate": NUM_PREFIXES * K,
            "evaluate": EVAL_PREFIXES * SAMPLES * len(HORIZONS)}
    FUTURES_PER_REQUEST = {"generate": NUM_PREFIXES * K}

    def __init__(self, seed, workdir):
        self.grammar = build_preset_grammar("recipe")
        self.oracle = exact_ngram_distribution(self.grammar, 3, LENGTH)
        self.num_rules = activity_config(self.grammar.num_tokens).num_rules
        data, train = os.path.join(workdir, "data"), os.path.join(workdir, "train")
        self.out = {k: os.path.join(workdir, k) for k in self.KINDS}

        def argv(command, **kv):
            out = [command]
            for key, value in kv.items():
                out += ["--set", f"{key}={value}"]
            return out

        self.setup_argv = [
            argv("synth", preset="recipe", num_sequences=self.NUM_SEQUENCES,
                 length=LENGTH, seed=seed, out_dir=data),
            argv("train", dataset=os.path.join(data, "dataset.jsonl"),
                 iterations=self.CHECKPOINT_ITERS, seed=seed, entropy_weight=0,
                 tau_end=0.5, out_dir=train),
        ]
        self.argv = {
            "synth": argv("synth", preset="recipe", num_sequences=self.NUM_SEQUENCES,
                          length=LENGTH, seed=seed, out_dir=self.out["synth"]),
            "generate": argv("generate", run_dir=train,
                             dataset=os.path.join(data, "dataset.jsonl"),
                             k=self.K, horizon=LENGTH, num_prefixes=self.NUM_PREFIXES,
                             seed=seed, out_dir=self.out["generate"]),
            "evaluate": argv("evaluate", run_dir=train,
                             dataset=os.path.join(data, "dataset.jsonl"),
                             grammar=os.path.join(data, "grammar.json"),
                             horizons=json.dumps(list(self.HORIZONS)).replace(" ", ""),
                             num_prefixes=self.EVAL_PREFIXES,
                             samples_per_prefix=self.SAMPLES, seed=seed,
                             out_dir=self.out["evaluate"]),
        }

    @staticmethod
    def _request(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def setup(self):
        for argv in self.setup_argv:
            code, err = self._request(argv)
            if code != 0:
                raise RuntimeError(f"set-up request {argv[0]} failed: {err.strip()}")

    def _check(self, kind, code, err, digests):
        checks.check_exit(code, err)
        out = self.out[kind]
        if kind == "synth":
            checks.check_dataset(out, self.NUM_SEQUENCES, LENGTH,
                                 self.grammar.num_tokens, self.oracle)
            artifact = "dataset.jsonl"
        elif kind == "generate":
            checks.check_futures(out, self.NUM_PREFIXES * self.K, LENGTH, self.num_rules)
            artifact = "futures.jsonl"
        else:
            checks.check_report(out, self.HORIZONS)
            artifact = "report.json"
        with open(os.path.join(out, artifact), "rb") as f:
            digests[kind] = _digest(f.read())

    def run(self, tally, label="run", tracer=None):
        """Run one segment, a synth -> generate -> evaluate cycle; returns its
        operations and fingerprint (a digest of the three artifacts)."""
        ops, digests = [], {}
        for i, kind in enumerate(self.KINDS):
            if tracer is not None:
                tracer.op = (label, kind, i)

            def request():
                t0 = time.perf_counter()
                try:
                    return self._request(self.argv[kind])
                finally:
                    ops.append((kind, time.perf_counter() - t0))

            checks.checked(tally, request,
                           lambda result: self._check(kind, *result, digests))
        return ops, _digest(*(digests.get(k, "") for k in self.KINDS))

    def named_metrics(self, ops):
        out = {}
        for kind, unit in (("synth", "tokens"), ("generate", "futures"),
                           ("evaluate", "futures")):
            times = [s for k, s in ops if k == kind]
            out[f"{kind}_{unit}_per_s"] = (self.WORK[kind] / statistics.median(times), "1/s")
        return out


WORKLOADS = {
    "recipe-adversarial": RecipeAdversarial,
    "bimodal-likelihood": BimodalLikelihood,
    "recipe-cli": RecipeCli,
}


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def p90(values):
    """Inclusive 90th percentile; a single value is its own percentile."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def op_summary(ops):
    """(p50, p90, n) of operation time in ms.

    With one kind of operation these are its median and 90th percentile.
    With several kinds (the CLI requests) each is the geometric mean over
    kinds of that kind's percentile, so every kind weighs the same whatever
    its size and however many of it fit in the run.
    """
    by_kind = {}
    for kind, s in ops:
        if s is not None:
            by_kind.setdefault(kind, []).append(s * 1e3)
    k = len(by_kind)
    g50 = g90 = 1.0
    for times in by_kind.values():
        g50 *= statistics.median(times) ** (1.0 / k)
        g90 *= p90(times) ** (1.0 / k)
    return g50, g90, sum(len(t) for t in by_kind.values())
