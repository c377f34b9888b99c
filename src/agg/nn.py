"""Layers, optimizer schedule, and the checkpoint format.

All weights are float64 Parameters initialized Xavier-uniform from a seeded
generator. The optimizer is plain momentum SGD with a cosine learning-rate
decay over a fixed number of steps.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import DimensionError, ParameterError, ParseError, ScheduleError


def xavier_uniform(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    if len(shape) == 3:  # conv kernel (K, Cin, Cout)
        fan_in = shape[0] * shape[1]
        fan_out = shape[0] * shape[2]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Dense:
    """The linear layer x @ w + b; x may be (d,), (B, d) or (B, L, d)."""

    def __init__(self, rng, d_in, d_out, name="dense"):
        self.w = Parameter(xavier_uniform(rng, (d_in, d_out)), name=f"{name}.w")
        self.b = Parameter(np.zeros(d_out), name=f"{name}.b")

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.w), self.b)

    def parameters(self):
        return [self.w, self.b]


class Conv1d:
    def __init__(self, rng, c_in, c_out, kernel=5, stride=1, name="conv"):
        if kernel % 2 == 0:
            raise DimensionError("conv kernel width must be odd")
        self.w = Parameter(xavier_uniform(rng, (kernel, c_in, c_out)), name=f"{name}.w")
        self.b = Parameter(np.zeros(c_out), name=f"{name}.b")
        self.stride = stride

    def __call__(self, x):
        return ad.conv1d(x, self.w, self.b, stride=self.stride)

    def parameters(self):
        return [self.w, self.b]


MOMENTUM = 0.9


class SGD:
    """Momentum SGD with cosine learning-rate decay to zero."""

    def __init__(self, params, lr0=0.1, total_steps=5000):
        if total_steps <= 0:
            raise ParameterError("total_steps must be positive")
        self.params = list(params)
        self.lr0 = lr0
        self.total_steps = total_steps
        self.step_count = 0
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def lr(self, step=None):
        step = self.step_count if step is None else step
        if step < 0 or step > self.total_steps:
            raise ScheduleError(f"step {step} outside schedule [0, {self.total_steps}]")
        return self.lr0 * 0.5 * (1.0 + math.cos(math.pi * step / self.total_steps))

    def step(self):
        if self.step_count >= self.total_steps:
            raise ScheduleError(f"optimizer exhausted at step {self.step_count}")
        lr = self.lr()
        for p, v in zip(self.params, self.velocity):
            g = p.grad_or_zero()
            v *= MOMENTUM
            v += g
            p.assign(p.value - lr * v)
            p.grad = None
        self.step_count += 1

    def skip(self):
        """Advance the schedule without touching parameters or velocity."""
        if self.step_count >= self.total_steps:
            raise ScheduleError(f"optimizer exhausted at step {self.step_count}")
        for p in self.params:
            p.grad = None
        self.step_count += 1


# ---------------------------------------------------------------------------
# checkpoint format: 8-byte little-endian manifest length, JSON manifest
# (name, shape, offset per parameter), then a flat little-endian float64
# payload. Round trips bit-exactly.
# ---------------------------------------------------------------------------

def save_checkpoint(path, named_params):
    manifest = []
    payload = bytearray()
    for name, value in named_params.items():
        arr = np.asarray(value, dtype="<f8")
        shape = list(arr.shape)
        arr = np.ascontiguousarray(arr)   # 0-d promotes to (1,); keep the real shape
        manifest.append({"name": name, "shape": shape, "offset": len(payload)})
        payload.extend(arr.tobytes())
    header = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        f.write(bytes(payload))


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def load_checkpoint(path):
    """Parameters saved by save_checkpoint; ParseError if the file is
    truncated or its manifest is malformed."""
    with open(path, "rb") as f:
        data = memoryview(f.read())
    if len(data) < 8:
        raise ParseError(f"{path}: checkpoint is shorter than its 8-byte header")
    (hlen,) = struct.unpack_from("<Q", data)
    if hlen > len(data) - 8:
        raise ParseError(f"{path}: checkpoint ends inside its manifest")
    try:
        manifest = json.loads(bytes(data[8:8 + hlen]).decode("utf-8"))
    except ValueError as e:      # bad UTF-8 or bad JSON
        raise ParseError(f"{path}: unreadable checkpoint manifest ({e})") from e
    payload = data[8 + hlen:]
    if not isinstance(manifest, list):
        raise ParseError(f"{path}: checkpoint manifest is not a list")
    out = {}
    for entry in manifest:
        try:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
        except (TypeError, KeyError):
            raise ParseError(f"{path}: malformed checkpoint entry {entry!r}") from None
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start)):
            raise ParseError(f"{path}: malformed checkpoint entry {entry!r}")
        n = math.prod(shape)
        if start + 8 * n > len(payload):
            raise ParseError(f"{path}: checkpoint payload ends before {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=start)
        out[name] = arr.reshape(shape).astype(np.float64)
    return out
