"""Layer oracles, optimizer schedule, and checkpoint round trips."""
import numpy as np
import pytest

from agg import autodiff as ad
from agg import nn
from agg.errors import ParameterError, ParseError, ScheduleError


def test_dense_identity():
    w = ad.Tensor(np.eye(3))
    b = ad.Tensor(np.zeros(3))
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(nn.dense_forward(ad.Tensor(x), w, b, "none").value, x)


def test_dense_zero_weights_softmax_uniform():
    w = ad.Tensor(np.zeros((3, 4)))
    b = ad.Tensor(np.zeros(4))
    y = nn.dense_forward(ad.Tensor(np.array([5.0, -1.0, 2.0])), w, b, "softmax")
    assert np.allclose(y.value, 0.25)


def test_dense_hand_oracle():
    # W = [[1,2],[3,4]], b = (1,1), x = (1,1): Wx + b = (4, 8). The layer
    # computes x @ w + b, so w holds W transposed.
    w = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).T)
    b = ad.Tensor(np.array([1.0, 1.0]))
    y = nn.dense_forward(ad.Tensor(np.array([1.0, 1.0])), w, b, "none")
    assert np.array_equal(y.value, np.array([4.0, 8.0]))


def test_dense_unknown_activation():
    with pytest.raises(ParameterError):
        nn.dense_forward(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros((2, 2))),
                         ad.Tensor(np.zeros(2)), "gelu")


def test_dense_bias_free():
    rng = np.random.default_rng(0)
    layer = nn.Dense(rng, 4, 3, bias=False)
    assert layer.b is None and len(layer.parameters()) == 1
    x = np.eye(4)[1]
    assert np.allclose(layer(ad.Tensor(x)).value, layer.w.value[1])


def test_conv_hand_oracle():
    # kernel (1, 0, -1), valid, input (1, 2, 4, 7) -> (1-4, 2-7) = (-3, -5)
    x = ad.Tensor(np.array([[1.0, 2.0, 4.0, 7.0]]).reshape(1, 4, 1))
    w = ad.Tensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
    b = ad.Tensor(np.zeros(1))
    y = ad.conv1d(x, w, b, stride=1, padding="valid").value
    assert np.allclose(y.reshape(-1), [-3.0, -5.0])


def test_conv_width1_channel_mix():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 6, 3))
    w = rng.normal(size=(1, 3, 4))
    y = ad.conv1d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(np.zeros(4))).value
    assert np.allclose(y, x @ w[0])


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
    opt = nn.SGD([p], lr0=0.1, momentum=0.9, total_steps=10**9)
    for _ in range(2):
        p.grad = np.ones(1)
        opt.step()
    assert abs(p.value[0] + 0.29) < 1e-9


def test_sgd_first_step_no_momentum():
    p = ad.Parameter(np.zeros(1))
    opt = nn.SGD([p], lr0=0.1, momentum=0.0, total_steps=10**9)
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


def test_mlp_shapes_and_params():
    rng = np.random.default_rng(0)
    mlp = nn.MLP(rng, [4, 8, 3])
    y = mlp(ad.Tensor(np.zeros((2, 4))))
    assert y.value.shape == (2, 3)
    assert len(mlp.parameters()) == 4
    assert len(nn.MLP(rng, [4, 8, 3], bias=False).parameters()) == 2
