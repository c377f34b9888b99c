"""Shared test helpers: the finite-difference oracle for the gradient tests,
the rule law at seed states, the primitive ops and the rule head that only
the per-op reference graphs still use, and the runner for `python -m agg.cli`
child processes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import agg
from agg import autodiff as ad

H = 1e-4


def numeric_grad(fn, x, h=H):
    """Central finite differences of a scalar-valued fn at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = fn(x)
        flat[i] = keep - h
        fm = fn(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1.0)
    return np.abs(a - b).max(initial=0.0) / denom


def check_op(build_loss, shapes, seed, tol=1e-4, h=H):
    """build_loss(list of Tensors) -> scalar Tensor. Compares every input's
    analytic gradient against central differences."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(v.copy()) for v in values]
    loss = build_loss(tensors)
    ad.backward(loss)
    for k, v in enumerate(values):
        def scalar(x, k=k):
            ts = [ad.Tensor(values[j].copy()) if j != k else ad.Tensor(x.copy())
                  for j in range(len(values))]
            return float(build_loss(ts).value)

        num = numeric_grad(scalar, v, h=h)
        ana = tensors[k].grad_or_zero()
        assert rel_err(ana, num) < tol, f"input {k}: {rel_err(ana, num)}"


def seed_probs(model, n0):
    """The rule law at each state of n0 (U, d): the seed rows of
    model.rule_tables(n0).probs_all."""
    return model.rule_tables(np.asarray(n0, dtype=np.float64)).probs_all[model.config.num_rules:]


# Primitive ops of the per-op graphs that the one-node unroll and likelihood
# beam replaced; the reference tests build those graphs from these copies.

def gather_nd(x, idx):
    """x[idx] for a tuple of integer index arrays; backward scatter-adds."""
    x = ad._as_tensor(x)
    idx = tuple(np.asarray(i) for i in idx)
    out_v = x.value[idx]

    def bwd(g):
        dx = np.zeros_like(x.value)
        np.add.at(dx, idx, g)
        ad._acc(x, dx)

    return ad._node(out_v, (x,), bwd)


def sum_along(x, axis):
    x = ad._as_tensor(x)
    out_v = x.value.sum(axis=axis)

    def bwd(g):
        ad._acc(x, np.expand_dims(g, axis) * np.ones_like(x.value))

    return ad._node(out_v, (x,), bwd)


def stack_time(tensors):
    """Stack per-step (B, d) tensors into (B, T, d)."""
    tensors = [ad._as_tensor(t) for t in tensors]
    out_v = np.stack([t.value for t in tensors], axis=1)

    def bwd(g):
        for i, t in enumerate(tensors):
            ad._acc(t, g[:, i, :])

    return ad._node(out_v, tuple(tensors), bwd)


def mask_logits(x, keep):
    """Set entries where keep is False to -inf; gradient flows only where kept."""
    x = ad._as_tensor(x)
    keep = np.asarray(keep, dtype=bool)
    out_v = np.where(keep, x.value, -np.inf)

    def bwd(g):
        ad._acc(x, g * keep)

    return ad._node(out_v, (x,), bwd)


def straight_through(value, x):
    """A node whose value is the array `value` and whose gradient passes to
    x unchanged: the straight-through estimator's backward."""
    x = ad._as_tensor(x)
    return ad._node(np.asarray(value), (x,), lambda g: ad._acc(x, g))


def ref_rule_logits(model, n):
    """GrammarModel.rule_logits, which the numpy rule head replaced: the
    masked rule logits mask(add(matmul(n, W_r), b_r)) as primitive ops."""
    n = n if isinstance(n, ad.Tensor) else ad.Tensor(n)
    logits = ad.add(ad.matmul(n, model.w_r), model.b_r)
    keep = model._topk_keep(logits.value)
    return logits if keep is None else mask_logits(logits, keep)


def expand(model, selection):
    """GrammarModel.expand, which the one-node unroll replaced: map a
    (relaxed) one-hot rule selection to (next non-terminal, terminal), the
    selection times W_n and the selection times the constant one-hot table
    E of the rules' tokens."""
    selection = selection if isinstance(selection, ad.Tensor) else ad.Tensor(selection)
    E = np.eye(model.config.d_terminal)[model.emit]
    return ad.matmul(selection, model.w_n), ad.matmul(selection, E)


def run_cli(args, cwd, env_extra=None):
    """Run `python -m agg.cli args` in `cwd`; returns the CompletedProcess.

    The directory holding the `agg` package this process imported goes first
    on the child's PYTHONPATH, so the child runs the same code from any
    working directory, whether or not the package is installed."""
    env = dict(os.environ)
    src = str(Path(agg.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, rest]) if rest else src
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "agg.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env)
