"""Gradient checks for every primitive op, and for the reference copies of
the ops only the per-op reference graphs use (tests/helpers.py), against
central finite differences."""
import numpy as np
import pytest

from agg import autodiff as ad
from agg.errors import DimensionError

from helpers import (check_op, gather_nd, mask_logits, numeric_grad, rel_err, stack_time,
                     sum_along)

N_CASES = 20


def seeds():
    return range(N_CASES)


@pytest.mark.parametrize("seed", seeds())
def test_add_mul_scale(seed):
    check_op(lambda ts: ad.total(ad.mul(ad.add(ts[0], ts[1]), ts[2])),
             [(3, 4), (3, 4), (3, 4)], seed)
    check_op(lambda ts: ad.total(ad.mul(ts[0], -2.5)), [(5,)], seed)


def test_mul_by_constant_takes_no_gradient_for_it():
    # the softmax hands the -inf entry a zero gradient; one computed for the
    # constant 2.0 would take 0 * -inf = NaN there, with a RuntimeWarning
    x = ad.Tensor(np.array([-np.inf, 0.5]))
    loss = ad.total(ad.mul(ad.softmax(ad.mul(x, 2.0)), np.array([1.0, 2.0])))
    with np.errstate(all="raise"):
        ad.backward(loss)
    assert x.grad.tolist() == [0.0, 0.0]
    assert ad.mul(2.0, 3.0).value == 6.0 and ad.mul(2.0, 3.0).parents == ()


@pytest.mark.parametrize("seed", seeds())
def test_add_broadcast(seed):
    check_op(lambda ts: ad.total(ad.add(ts[0], ts[1])), [(3, 4), (4,)], seed)
    check_op(lambda ts: ad.total(ad.mul(ts[0], ts[1])), [(2, 3, 4), (1, 4)], seed)


@pytest.mark.parametrize("seed", seeds())
def test_matmul(seed):
    check_op(lambda ts: ad.total(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 5)], seed)
    check_op(lambda ts: ad.total(ad.matmul(ts[0], ts[1])), [(2, 3, 4), (4, 5)], seed)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))


@pytest.mark.parametrize("seed", seeds())
def test_elementwise(seed):
    for op in (ad.relu, ad.sigmoid):
        check_op(lambda ts, op=op: ad.total(op(ts[0])), [(4, 3)], seed)


@pytest.mark.parametrize("seed", seeds())
def test_log_positive(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.0, size=(6,))
    t = ad.Tensor(x.copy())
    loss = ad.total(ad.log(t))
    ad.backward(loss)
    num = numeric_grad(lambda v: float(np.log(v).sum()), x)
    assert rel_err(t.grad, num) < 1e-4


@pytest.mark.parametrize("seed", seeds())
def test_softmax(seed):
    check_op(lambda ts: ad.total(ad.mul(ad.softmax(ts[0]), ts[1])),
             [(3, 5), (3, 5)], seed)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = ad.softmax(ad.Tensor(rng.normal(scale=5, size=(7,)))).value
        assert abs(y.sum() - 1.0) < 1e-9
        assert np.all(y > 0)


def test_softmax_handles_neg_inf():
    x = np.array([1.0, -np.inf, 0.0])
    y = ad.softmax(ad.Tensor(x)).value
    assert y[1] == 0.0
    assert abs(y.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("seed", seeds())
def test_clamp_min(seed):
    # keep samples away from the kink so finite differences are valid
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8,))
    x[np.abs(x) < 0.01] = 0.5
    t = ad.Tensor(x.copy())
    loss = ad.total(ad.clamp_min(t, 0.0))
    ad.backward(loss)
    num = numeric_grad(lambda v: float(np.maximum(v, 0.0).sum()), x)
    assert rel_err(t.grad, num) < 1e-4


@pytest.mark.parametrize("seed", seeds())
def test_reductions(seed):
    check_op(lambda ts: ad.mean(ts[0]), [(3, 4)], seed)
    check_op(lambda ts: ad.total(ad.mean(ts[0], axis=1)), [(3, 4)], seed)
    check_op(lambda ts: ad.total(sum_along(ts[0], axis=0)), [(3, 4)], seed)


@pytest.mark.parametrize("seed", seeds())
def test_shape_ops(seed):
    check_op(lambda ts: ad.total(ad.reshape(ts[0], (6, 2))), [(3, 4)], seed)
    check_op(lambda ts: ad.total(ad.concat([ts[0], ts[1]], axis=-1)),
             [(3, 2), (3, 4)], seed)
    check_op(lambda ts: ad.total(stack_time([ts[0], ts[1]])),
             [(3, 4), (3, 4)], seed)


@pytest.mark.parametrize("seed", seeds())
def test_gather_nd(seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, size=(4,))
    cols = rng.integers(0, 5, size=(4,))
    check_op(lambda ts: ad.total(gather_nd(ts[0], (rows, cols))),
             [(3, 5)], seed)


@pytest.mark.parametrize("seed", seeds())
def test_mask_logits(seed):
    rng = np.random.default_rng(seed)
    keep = rng.random((3, 5)) > 0.4
    keep[:, 0] = True  # at least one live logit per row
    check_op(lambda ts: ad.total(ad.mul(ad.softmax(mask_logits(ts[0], keep)), ts[1])),
             [(3, 5), (3, 5)], seed)


@pytest.mark.parametrize("seed", seeds())
@pytest.mark.parametrize("stride", [1, 4], ids=["1-same", "4-same"])   # "same" padding
def test_conv1d(seed, stride):
    check_op(lambda ts: ad.total(ad.conv1d(ts[0], ts[1], ts[2], stride=stride)),
             [(2, 9, 3), (5, 3, 4), (4,)], seed)


def test_conv1d_shape_contracts():
    x = ad.Tensor(np.zeros((1, 16, 2)))
    w = ad.Tensor(np.zeros((5, 2, 3)))
    b = ad.Tensor(np.zeros(3))
    assert ad.conv1d(x, w, b, stride=4).value.shape == (1, 4, 3)
    # "same" padding: a kernel wider than the input still gives ceil(L / stride)
    assert ad.conv1d(ad.Tensor(np.zeros((1, 3, 2))), w, b).value.shape == (1, 3, 3)
    with pytest.raises(DimensionError):
        ad.conv1d(x, ad.Tensor(np.zeros((4, 2, 3))), b)      # even kernel width


def _square_and_double(x, calls):
    """(x * x, 2 x) as one two-output node; each run of its backward appends
    which outputs passed it a gradient."""
    def bwd(grads):
        calls.append([g is not None for g in grads])
        g_sq, g_dbl = grads
        if g_sq is not None:
            ad._acc(x, g_sq * 2.0 * x.value)
        if g_dbl is not None:
            ad._acc(x, g_dbl * 2.0)

    return ad._multi_node([x.value * x.value, 2.0 * x.value], (x,), bwd)


@pytest.mark.parametrize("seed", seeds())
def test_multi_node_output_unused(seed):
    calls = []
    check_op(lambda ts: ad.total(ad.mul(_square_and_double(ts[0], calls)[0], ts[1])),
             [(3, 4), (3, 4)], seed)
    assert calls[0] == [True, False]
    x = ad.Tensor(np.ones(3))
    _, dbl = _square_and_double(x, calls)
    ad.backward(ad.total(dbl))
    assert calls[-1] == [False, True] and np.array_equal(x.grad, np.full(3, 2.0))


@pytest.mark.parametrize("seed", seeds())
def test_multi_node_output_consumed_twice(seed):
    calls = []

    def loss(ts):
        sq, dbl = _square_and_double(ts[0], calls)
        twice = ad.add(ad.total(ad.mul(dbl, ts[1])), ad.total(ad.mul(dbl, ts[2])))
        return ad.add(twice, ad.total(sq))

    check_op(loss, [(2, 5), (2, 5), (2, 5)], seed)
    # one backward run per graph, after both uses of dbl have added up
    assert calls[0] == [True, True]
    calls.clear()
    x = ad.Tensor(np.arange(3.0))
    ad.backward(loss([x, ad.Tensor(np.ones(3)), ad.Tensor(np.full(3, 2.0))]))
    assert calls == [[True, True]]
    assert np.array_equal(x.grad, 2.0 * np.arange(3.0) + 6.0)


def test_multi_node_without_grad():
    with ad.no_grad():
        sq, dbl = _square_and_double(ad.Tensor(np.ones(2)), [])
    assert all(t.parents == () and t.bwd is None for t in (sq, dbl))


def test_backward_accumulates():
    x = ad.Tensor(np.ones(3))
    loss = ad.total(ad.mul(x, 2.0))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = ad.total(ad.mul(x, 2.0))
    ad.backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_disconnected_param_zero_grad():
    p = ad.Parameter(np.ones(3), name="p")
    q = ad.Parameter(np.ones(3), name="q")
    loss = ad.total(ad.mul(p, 1.0))
    ad.backward(loss)
    assert np.array_equal(q.grad_or_zero(), np.zeros(3))


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        ad.backward(ad.Tensor(np.zeros(3)))


def test_no_grad_blocks_recording():
    x = ad.Tensor(np.ones(3))
    with ad.no_grad():
        y = ad.mul(x, 2.0)
    assert y.parents == () and y.bwd is None


def test_parameter_rejects_non_finite():
    from agg.errors import ParameterError
    with pytest.raises(ParameterError):
        ad.Parameter(np.array([1.0, np.nan]))
    p = ad.Parameter(np.zeros(2), name="p")
    with pytest.raises(ParameterError):
        p.assign(np.array([np.inf, 0.0]))
    with pytest.raises(DimensionError):
        p.assign(np.zeros(3))
