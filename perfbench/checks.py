"""Output checks for the benchmark's operations.

Every operation the benchmark times is checked afterwards. A check raises
CheckFailed with a reason when the output is wrong; Tally counts attempted
and failed operations, and an operation fails when it raises, when the CLI
exits non-zero, or when its check fails.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

SYNTH_MAX_KL = 0.01   # 3-gram KL of a synthesized dataset against its oracle


class CheckFailed(Exception):
    pass


class Tally:
    """Attempted and failed operation counts, with the first few reasons."""

    MAX_REASONS = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self._last_failed = False

    def record(self, reason=None):
        """Count one operation; a reason marks it failed."""
        self.attempted += 1
        self._last_failed = False
        if reason is not None:
            self.fail_last(reason)

    def fail_last(self, reason):
        """Mark the most recent operation failed (counted once)."""
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)
        if self.attempted and not self._last_failed:
            self.failed += 1
            self._last_failed = True


def checked(tally, op, check):
    """Run op(), then check(result); count the operation in tally.

    This is the boundary that keeps the closed loop running: any exception
    from the program is recorded as a failed operation, not re-raised.
    """
    try:
        check(op())
    except CheckFailed as e:
        tally.record(str(e))
    except Exception as e:   # noqa: BLE001 - a failing operation must not end the run
        tally.record(f"{type(e).__name__}: {e}")
    else:
        tally.record()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_loss_row(row, keys):
    for key in keys:
        value = row.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"iteration {row.get('iteration')}: {key} = {value!r} is not finite")


def check_params_finite(named_values):
    bad = sorted(name for name, v in named_values.items() if not np.isfinite(v).all())
    if bad:
        raise CheckFailed(f"non-finite parameters: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# CLI requests
# ---------------------------------------------------------------------------

def check_exit(code, stderr=""):
    if code != 0:
        raise CheckFailed(f"exit code {code}: {stderr.strip()[:200]}")


def _read_lines(path):
    with open(path) as f:
        return [line for line in f.read().splitlines() if line.strip()]


def check_futures(out_dir, num_futures, horizon, num_rules):
    """futures.jsonl: one line per future, `horizon` rule indices in
    [0, num_rules), finite log_prob <= 0."""
    lines = _read_lines(os.path.join(out_dir, "futures.jsonl"))
    if len(lines) != num_futures:
        raise CheckFailed(f"{len(lines)} futures, expected {num_futures}")
    for lineno, line in enumerate(lines, start=1):
        obj = json.loads(line)
        idx = obj["rule_indices"]
        if len(idx) != horizon:
            raise CheckFailed(f"future {lineno}: {len(idx)} rule indices, expected {horizon}")
        for r in idx:
            if not isinstance(r, int) or not 0 <= r < num_rules:
                raise CheckFailed(f"future {lineno}: rule index {r!r} outside [0, {num_rules})")
        lp = obj["log_prob"]
        if not isinstance(lp, (int, float)) or not math.isfinite(lp) or lp > 0:
            raise CheckFailed(f"future {lineno}: log_prob {lp!r} is not finite and <= 0")


def check_report(out_dir, horizons):
    """report.json: a finite, non-negative KL for each requested horizon."""
    with open(os.path.join(out_dir, "report.json")) as f:
        per = json.load(f)["per_horizon"]
    if sorted(per, key=int) != [str(h) for h in sorted(horizons)]:
        raise CheckFailed(f"report horizons {sorted(per)} != {sorted(horizons)}")
    for h, v in per.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            raise CheckFailed(f"horizon {h}: KL {v!r} is not finite and >= 0")


def ngram_kl(tokens, oracle, n, num_tokens, eps=1e-6):
    """KL(oracle || empirical n-gram law of `tokens`), both eps-smoothed over
    every n-gram, in nats. `oracle` maps n-gram tuples to probabilities.

    Same definition as agg.metrics.ngram_kl, computed here so that a defect
    in the code under test cannot pass its own output, and so that checking
    does not add spans to a traced run."""
    tokens = np.asarray(tokens, dtype=np.int64)
    windows = tokens.shape[1] - n + 1
    codes = np.zeros((tokens.shape[0], windows), dtype=np.int64)
    for k in range(n):
        codes = codes * num_tokens + tokens[:, k:k + windows]
    q = np.bincount(codes.ravel(), minlength=num_tokens ** n) / codes.size
    p = np.zeros(num_tokens ** n)
    for gram, prob in oracle.items():
        code = 0
        for t in gram:
            code = code * num_tokens + t
        p[code] = prob
    p, q = p + eps, q + eps
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def check_dataset(out_dir, num_sequences, length, num_tokens, oracle, n=3):
    """dataset.jsonl: the right line count, tokens inside the alphabet, and
    an n-gram KL against the generating grammar's exact law <= SYNTH_MAX_KL."""
    lines = _read_lines(os.path.join(out_dir, "dataset.jsonl"))
    if len(lines) != num_sequences:
        raise CheckFailed(f"{len(lines)} sequences, expected {num_sequences}")
    rows = [json.loads(line)["tokens"] for line in lines]
    if any(len(r) != length for r in rows):
        raise CheckFailed(f"a sequence does not have length {length}")
    tokens = np.asarray(rows)
    if tokens.min() < 0 or tokens.max() >= num_tokens:
        raise CheckFailed(f"token outside the alphabet [0, {num_tokens})")
    kl = ngram_kl(tokens, oracle, n, num_tokens)
    if not kl <= SYNTH_MAX_KL:
        raise CheckFailed(f"{n}-gram KL {kl:.4g} against the oracle exceeds {SYNTH_MAX_KL}")
