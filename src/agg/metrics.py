"""Evaluation machinery: n-gram KL against an exact grammar oracle, model
futures to score with it, and best-of-K multi-future scoring."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .synthdata import GroundTruthGrammar, exact_ngram_distribution, sample_sequence


def grammar_sampler(grammar, state=None):
    """Sampler over the ground-truth grammar from `state` (default: start)."""
    g = grammar if state is None else GroundTruthGrammar(
        grammar.states, grammar.tokens, state, grammar.rules)

    def sample(horizon, rng):
        return sample_sequence(g, horizon, rng)

    return sample


def best_of_k(sampler, horizon, k, metric, seed=0, higher_is_better=True):
    """Best metric value over k seeded futures from `sampler(horizon, rng)`.

    The seed stream is prefix-stable: best_of_k with k' < k scores a prefix of
    the same sample set, so score metrics are monotone nondecreasing in k.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    children = np.random.SeedSequence(seed).spawn(k)
    values = []
    for child in children:
        rng = np.random.default_rng(child)
        values.append(metric(sampler(horizon, rng)))
    return max(values) if higher_is_better else min(values)


def empirical_ngram_distribution(samples, n, num_tokens):
    """n-gram frequencies over all windows of the sampled token sequences.

    samples holds integer tokens; (max - min + 1) ** n must fit in int64.
    The n-grams come in ascending order."""
    if n < 1:
        raise ParameterError("n-gram order must be >= 1")
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] < n:
        raise ParameterError("samples must be (N, horizon) with horizon >= n")
    if samples.size == 0:
        return {}
    # one integer code per window, in base (max - min + 1) over the n tokens
    lo = samples.min()
    base = samples.max() - lo + 1
    windows = samples.shape[1] - n + 1
    codes = np.zeros((samples.shape[0], windows), dtype=np.int64)
    for k in range(n):
        codes = codes * base + (samples[:, k:k + windows] - lo)
    uniq, counts = np.unique(codes, return_counts=True)
    digits = (uniq[:, None] // base ** np.arange(n - 1, -1, -1)) % base + lo
    total = samples.shape[0] * windows
    return {tuple(g): c / total for g, c in zip(digits.tolist(), counts.tolist())}


def kl_divergence(p, q, support, eps=1e-6):
    """KL(p || q) in nats after epsilon-smoothing both over `support`."""
    pv = np.asarray([p.get(s, 0.0) for s in support]) + eps
    qv = np.asarray([q.get(s, 0.0) for s in support]) + eps
    pv /= pv.sum()
    qv /= qv.sum()
    return float(np.sum(pv * np.log(pv / qv)))


def ngram_kl(model_samples, oracle, n, horizon):
    """KL(data || model) over the n-grams of the (N, horizon) model samples
    and of the exact oracle, in nats: ngram_kl_by_horizon at one horizon."""
    return ngram_kl_by_horizon(model_samples, oracle, n, [horizon])[horizon]


def ngram_kl_by_horizon(model_samples, oracle, n, horizons):
    """{h: KL(data || model) of the n-gram distributions at horizon h}, in
    nats, over the horizons in ascending order: the model's from the windows
    of the first h columns of the (N, H) samples, H >= the longest horizon,
    and the data's from the exact oracle. Refused with ResourceError before
    any counting when the oracle's n-grams are over its budget.

    Every window of the samples' first H columns is coded once as its index
    in the support. A window that holds a token outside the oracle's
    alphabet goes to one bin past the support: it counts in the total but in
    no n-gram. One bincount over (column, code) and a running total over the
    columns give, for horizon h, the counts of its first h - n + 1 window
    columns.
    """
    horizons = sorted(set(horizons))
    # the exact laws come first: they check n, and the oracle's budget
    exact = [exact_ngram_distribution(oracle, n, h) for h in horizons]
    samples = np.asarray(model_samples)
    if samples.ndim != 2 or samples.shape[1] < horizons[-1]:
        raise ParameterError("samples must be (N, H) with H >= the longest horizon")
    C = oracle.num_tokens
    size = C ** n
    samples = samples[:, :horizons[-1]]
    outside = (samples < 0) | (samples >= C)
    windows = samples.shape[1] - n + 1
    codes = np.zeros((len(samples), windows), dtype=np.int64)
    missed = np.zeros(codes.shape, dtype=bool)
    for k in range(n):
        codes = codes * C + samples[:, k:k + windows]
        missed |= outside[:, k:k + windows]
    codes[missed] = size
    codes += np.arange(windows) * (size + 1)
    counts = np.bincount(codes.ravel(), minlength=windows * (size + 1))
    counts = np.cumsum(counts.reshape(windows, size + 1), axis=0)
    # every n-gram in ascending order, the first token most significant
    support = list(itertools.product(range(C), repeat=n))
    out = {}
    for h, p in zip(horizons, exact):
        # each count over the total, as empirical_ngram_distribution divides
        # (with no samples every count is 0, and so is its frequency)
        q = counts[h - n, :size] / max(len(samples) * (h - n + 1), 1)
        out[h] = kl_divergence(p, dict(zip(support, q.tolist())), support)
    return out


def sample_model_futures(model, prefixes, horizon, num_samples_per_prefix=1, seed=0):
    """(N * num_samples, horizon) token paths from the generator, seeded by
    encoding each distinct one-hot prefix."""
    paths, _ = model.sample_prefix_paths(prefixes, horizon, num_samples_per_prefix,
                                         seed=seed)
    return np.argmax(model.rule_terminals(), axis=-1)[paths]


@dataclass
class EvalReport:
    per_horizon: dict                  # horizon -> metric value
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = list(self.per_horizon)
        if hs != sorted(hs):
            raise ParameterError("horizons must be strictly increasing")
        for v in self.per_horizon.values():
            if not np.isfinite(v):
                raise ParameterError("metric values must be finite")

    def to_json(self):
        return json.dumps({
            "per_horizon": {str(h): v for h, v in self.per_horizon.items()},
            "metadata": self.metadata,
        }, indent=2)

    def render_table(self):
        """Aligned text table, horizons as columns."""
        horizons = list(self.per_horizon)
        header = ["metric"] + [str(h) for h in horizons]
        rows = [["value"] + [f"{self.per_horizon[h]:.4f}" for h in horizons]]
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)
