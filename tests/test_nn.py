"""Layer oracles, initial parameters, optimizer schedule, and checkpoint
round trips."""
import hashlib

import numpy as np
import pytest

from agg import autodiff as ad
from agg import nn
from agg.adversarial import Discriminator, DiscriminatorConfig
from agg.grammar import GrammarModel, activity_config
from agg.errors import ParseError, ScheduleError


def _dense(w, b):
    layer = nn.Dense(np.random.default_rng(0), *np.shape(w))
    layer.w.assign(w)
    layer.b.assign(b)
    return layer


def test_dense_identity():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(_dense(np.eye(3), np.zeros(3))(ad.Tensor(x)).value, x)


def test_dense_zero_weights_softmax_uniform():
    y = ad.softmax(_dense(np.zeros((3, 4)), np.zeros(4))(ad.Tensor(np.array([5.0, -1.0, 2.0]))))
    assert np.allclose(y.value, 0.25)


def test_dense_hand_oracle():
    # W = [[1,2],[3,4]], b = (1,1), x = (1,1): Wx + b = (4, 8). The layer
    # computes x @ w + b, so w holds W transposed.
    layer = _dense(np.array([[1.0, 2.0], [3.0, 4.0]]).T, np.array([1.0, 1.0]))
    y = layer(ad.Tensor(np.array([1.0, 1.0])))
    assert np.array_equal(y.value, np.array([4.0, 8.0]))


def test_conv_hand_oracle():
    # kernel (1, 0, -1) over the input (1, 2, 4, 7), zero-padded by one on
    # each side ("same"): (0-2, 1-4, 2-7, 4-0) = (-2, -3, -5, 4)
    x = ad.Tensor(np.array([[1.0, 2.0, 4.0, 7.0]]).reshape(1, 4, 1))
    w = ad.Tensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
    b = ad.Tensor(np.zeros(1))
    y = ad.conv1d(x, w, b, stride=1).value
    assert np.array_equal(y.reshape(-1), [-2.0, -3.0, -5.0, 4.0])


def test_conv_width1_channel_mix():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(1, 3, 4))
    y = ad.conv1d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(np.zeros(4))).value
    assert np.allclose(y, x @ w[0])


# names, shapes and the sha256 of the initial values' bytes, in the models'
# parameter order; the values are seeded uniform draws times a bound, so the
# digests hold on any platform
INITIAL_GRAMMAR = ([("enc.conv1.w", (3, 6, 64)), ("enc.conv1.b", (64,)),
                    ("enc.conv2.w", (3, 64, 64)), ("enc.conv2.b", (64,)),
                    ("enc.head.w", (64, 64)), ("enc.head.b", (64,)),
                    ("f_r.0.w", (64, 256)), ("f_r.0.b", (256,)),
                    ("f_n.0.w", (256, 64)), ("f_t.0.w", (256, 6))],
                   "14b110e23f8182b979ef3050c2844826ac6954911b2f613d755309c19f63b8e3")
INITIAL_DISCRIMINATOR = (
    [(f"d.{s}.conv{i}.{p}", shape) for s, d_in in (("t", 6), ("n", 64))
     for i, (c_in, c_out) in enumerate(((d_in, 16), (16, 32), (32, 16)))
     for p, shape in (("w", (5, c_in, c_out)), ("b", (c_out,)))]
    + [("d.head.w", (32, 1)), ("d.head.b", (1,))],
    "c814aa1ad81e27f9147a2e74d8c5a2f4be56d4786f17f2bde4947ce8ee18ff1a")


@pytest.mark.parametrize("build,want", [
    (lambda: GrammarModel(activity_config(6), seed=0), INITIAL_GRAMMAR),
    (lambda: Discriminator(6, 64, DiscriminatorConfig(conv_channels=(16, 32, 16)), seed=1),
     INITIAL_DISCRIMINATOR),
], ids=["grammar", "discriminator"])
def test_initial_parameters_are_pinned(build, want):
    params = build().parameters()
    assert [(p.name, p.value.shape) for p in params] == want[0]
    digest = hashlib.sha256(b"".join(p.value.tobytes() for p in params)).hexdigest()
    assert digest == want[1]


def test_sgd_schedule_endpoints():
    opt = nn.SGD([ad.Parameter(np.zeros(1))], lr0=0.1, total_steps=5000)
    assert abs(opt.lr(0) - 0.1) < 1e-12
    assert abs(opt.lr(2500) - 0.05) < 1e-12
    assert abs(opt.lr(5000) - 0.0) < 1e-12
    with pytest.raises(ScheduleError):
        opt.lr(5001)
    with pytest.raises(ScheduleError):
        opt.lr(-1)


def test_sgd_momentum_hand_recurrence():
    # constant grad 1, fixed lr 0.1 via huge total_steps approximation is not
    # exact, so drive the update rule directly with momentum 0.9:
    # v1 = 1, p1 = -0.1; v2 = 1.9, p2 = -0.1 - 0.19 = -0.29
    p = ad.Parameter(np.zeros(1), name="p")
    opt = nn.SGD([p], lr0=0.1, total_steps=10**9)
    for _ in range(2):
        p.grad = np.ones(1)
        opt.step()
    assert abs(p.value[0] + 0.29) < 1e-9


def test_sgd_first_step_no_momentum():
    p = ad.Parameter(np.zeros(1))
    opt = nn.SGD([p], lr0=0.1, total_steps=10**9)
    p.grad = np.ones(1)
    opt.step()
    assert abs(p.value[0] + 0.1) < 1e-12


def test_sgd_exhaustion_and_skip():
    p = ad.Parameter(np.zeros(1))
    opt = nn.SGD([p], total_steps=2)
    p.grad = np.ones(1)
    opt.step()
    opt.skip()
    assert opt.step_count == 2
    with pytest.raises(ScheduleError):
        opt.step()
    with pytest.raises(ScheduleError):
        opt.skip()


def test_sgd_skip_leaves_params():
    p = ad.Parameter(np.array([3.0]))
    opt = nn.SGD([p], total_steps=10)
    p.grad = np.ones(1)
    opt.skip()
    assert p.value[0] == 3.0 and p.grad is None
    assert np.array_equal(opt.velocity[0], np.zeros(1))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    state = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,)),
             "scalar": np.array(2.5)}
    path = tmp_path / "ckpt.bin"
    nn.save_checkpoint(path, state)
    loaded = nn.load_checkpoint(path)
    assert set(loaded) == set(state)
    for k in state:
        assert np.array_equal(np.asarray(state[k]), loaded[k])


def test_checkpoint_truncated_or_malformed_raises_parse_error(tmp_path):
    path = tmp_path / "ckpt.bin"
    nn.save_checkpoint(path, {"a.w": np.ones((3, 4)), "b": np.zeros(5)})
    data = path.read_bytes()
    hlen = int.from_bytes(data[:8], "little")
    # cut in the header, in the manifest, and in the payload
    for size in (0, 5, 30, 8 + hlen, len(data) - 1):
        path.write_bytes(data[:size])
        with pytest.raises(ParseError):
            nn.load_checkpoint(path)
    for manifest in (b"{}", b"[1]", b'[{"name": "a"}]',
                     b'[{"name": "a", "shape": [-1], "offset": 0}]',
                     b'[{"name": "a", "shape": [2], "offset": 8}]', b"\xff"):
        path.write_bytes(len(manifest).to_bytes(8, "little") + manifest
                         + bytes(16))
        with pytest.raises(ParseError):
            nn.load_checkpoint(path)

