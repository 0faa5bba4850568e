"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Values are float64 numpy arrays of shape (rows, cols). A ``Tensor`` records
the operation that produced it, so calling :func:`backward` on a scalar
result accumulates gradients into every upstream tensor. Randomness never
enters here; noise is always an explicitly passed constant array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

LOG_2PI = float(np.log(2.0 * np.pi))

# sigmoid outputs are clamped to this open interval so Bernoulli
# log-likelihoods stay finite
PROB_FLOOR = 1e-6

# softplus std heads get this floor/cap to avoid degenerate likelihood spikes
STD_FLOOR = 1e-3
STD_CAP = 1e3


class Tensor:
    """A 2-D array plus the closure that backpropagates into its parents."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.atleast_2d(np.asarray(value, dtype=np.float64))
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def constant(value) -> Tensor:
    return Tensor(value)


def backward(result: Tensor) -> None:
    """Accumulate d(result)/d(node) into ``.grad`` of every node in the graph.

    ``result`` must be scalar-shaped (1x1).
    """
    if result.value.size != 1:
        raise ShapeError(f"backward() needs a scalar result, got shape {result.value.shape}")
    order = []
    seen = set()
    stack = [(result, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    result.grad = np.ones_like(result.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    out = Tensor(a.value @ b.value, (a, b))

    def _bw(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    out._backward = _bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a (1, n) row broadcast over a's rows."""
    _check_broadcast(a.value.shape, b.value.shape)
    out = Tensor(a.value + b.value, (a, b))

    def _bw(g):
        a._accumulate(g)
        b._accumulate(_reduce_to(g, b.value.shape))

    out._backward = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.value.shape, b.value.shape)
    out = Tensor(a.value - b.value, (a, b))

    def _bw(g):
        a._accumulate(g)
        b._accumulate(-_reduce_to(g, b.value.shape))

    out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.value.shape, b.value.shape)
    out = Tensor(a.value * b.value, (a, b))

    def _bw(g):
        a._accumulate(_reduce_to(g * b.value, a.value.shape))
        b._accumulate(_reduce_to(g * a.value, b.value.shape))

    out._backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.value * c, (a,))
    out._backward = lambda g: a._accumulate(g * c)
    return out


def mul_const(a: Tensor, c) -> Tensor:
    """Elementwise product with a constant array (no gradient into c)."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.value * c, (a,))
    out._backward = lambda g: a._accumulate(g * c)
    return out


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.value + c, (a,))
    out._backward = lambda g: a._accumulate(g)
    return out


def _check_broadcast(sa, sb):
    ok = sa == sb or (sb == (1, sa[1])) or (sb == (sa[0], 1)) or sb == (1, 1)
    if not ok:
        raise ShapeError(f"incompatible shapes {sa} and {sb}")


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.value.reshape(shape), (a,))
    out._backward = lambda g: a._accumulate(g.reshape(a.value.shape))
    return out


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times in place: row i maps to rows i*k..i*k+k-1."""
    out = Tensor(np.repeat(a.value, k, axis=0), (a,))

    def _bw(g):
        n, c = a.value.shape
        a._accumulate(g.reshape(n, k, c).sum(axis=1))

    out._backward = _bw
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.value.sum(keepdims=True).reshape(1, 1), (a,))
    out._backward = lambda g: a._accumulate(np.full_like(a.value, g[0, 0]))
    return out


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.value.sum(axis=axis, keepdims=True), (a,))
    out._backward = lambda g: a._accumulate(np.broadcast_to(g, a.value.shape).copy())
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    out = Tensor(a.value.mean(keepdims=True).reshape(1, 1), (a,))
    out._backward = lambda g: a._accumulate(np.full_like(a.value, g[0, 0] / n))
    return out


# ---------------------------------------------------------------------------
# activations and likelihoods


def tanh(a: Tensor) -> Tensor:
    v = np.tanh(a.value)
    out = Tensor(v, (a,))
    out._backward = lambda g: a._accumulate(g * (1.0 - v * v))
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function with outputs clamped to [PROB_FLOOR, 1-PROB_FLOOR]."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.where(a.value >= 0,
                     1.0 / (1.0 + np.exp(-a.value)),
                     np.exp(a.value) / (1.0 + np.exp(a.value)))
    v = np.clip(v, PROB_FLOOR, 1.0 - PROB_FLOOR)
    out = Tensor(v, (a,))
    out._backward = lambda g: a._accumulate(g * v * (1.0 - v))
    return out


def softplus(a: Tensor) -> Tensor:
    v = np.logaddexp(0.0, a.value)
    out = Tensor(v, (a,))

    def _bw(g):
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.where(a.value >= 0,
                         1.0 / (1.0 + np.exp(-a.value)),
                         np.exp(a.value) / (1.0 + np.exp(a.value)))
        a._accumulate(g * s)

    out._backward = _bw
    return out


def activate(a: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        return tanh(a)
    if kind == "sigmoid":
        return sigmoid(a)
    if kind == "softplus":
        return softplus(a)
    raise DomainError(f"unknown activation kind {kind!r}")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with straight-through gradient inside the bounds, zero outside."""
    v = np.clip(a.value, lo, hi)
    inside = (a.value > lo) & (a.value < hi)
    out = Tensor(v, (a,))
    out._backward = lambda g: a._accumulate(g * inside)
    return out


def std_head(pre: Tensor) -> Tensor:
    """Standard-deviation head: softplus plus floor, capped."""
    return clip(add_const(softplus(pre), STD_FLOOR), STD_FLOOR, STD_CAP)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w + b with b a (1, out) row."""
    if b.value.shape != (1, w.value.shape[1]):
        raise ShapeError(f"bias shape {b.value.shape} does not match weight cols {w.value.shape[1]}")
    return add(matmul(x, w), b)


def gaussian_log_density(x, mean, std) -> Tensor:
    """Elementwise log N(x; mean, std^2); any argument may be a constant array."""
    xt = x if isinstance(x, Tensor) else constant(x)
    mt = mean if isinstance(mean, Tensor) else constant(mean)
    st = std if isinstance(std, Tensor) else constant(std)
    if np.any(st.value <= 0):
        raise DomainError("gaussian_log_density: std must be strictly positive")
    _check_broadcast(xt.value.shape, mt.value.shape)
    z = (xt.value - mt.value) / st.value
    v = -np.log(st.value) - 0.5 * LOG_2PI - 0.5 * z * z
    out = Tensor(np.broadcast_to(v, np.broadcast_shapes(xt.value.shape, mt.value.shape)).copy(),
                 (xt, mt, st))

    def _bw(g):
        inv = 1.0 / st.value
        xt._accumulate(_reduce_to(g * (-z * inv), xt.value.shape))
        mt._accumulate(_reduce_to(g * (z * inv), mt.value.shape))
        st._accumulate(_reduce_to(g * ((z * z - 1.0) * inv), st.value.shape))

    out._backward = _bw
    return out


def bernoulli_log_density(m, p: Tensor) -> Tensor:
    """Elementwise m*log(p) + (1-m)*log(1-p); m is a constant 0/1 array."""
    m = np.asarray(m, dtype=np.float64)
    if np.any((m != 0) & (m != 1)):
        raise DomainError("bernoulli_log_density: mask entries must be 0 or 1")
    if np.any(p.value <= 0) or np.any(p.value >= 1):
        raise DomainError("bernoulli_log_density: p must lie in the open unit interval")
    v = m * np.log(p.value) + (1.0 - m) * np.log1p(-p.value)
    out = Tensor(v, (p,))
    out._backward = lambda g: p._accumulate(g * (m / p.value - (1.0 - m) / (1.0 - p.value)))
    return out


def reparameterize(mean: Tensor, std: Tensor, noise) -> Tensor:
    """mean + std * noise; noise is a constant standard-normal draw."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mean.value.shape or std.value.shape != mean.value.shape:
        raise ShapeError(
            f"reparameterize: mean {mean.value.shape}, std {std.value.shape}, noise {noise.shape}")
    return add(mean, mul_const(std, noise))


def log_sum_exp(a: Tensor, axis: int) -> Tensor:
    """log sum exp along an axis via max-shift; safe up to |v| ~ 700."""
    if a.value.shape[axis] == 0:
        raise ShapeError("log_sum_exp: empty axis")
    m = a.value.max(axis=axis, keepdims=True)
    shifted = np.exp(a.value - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out = Tensor(m + np.log(total), (a,))
    out._backward = lambda g: a._accumulate(g * shifted / total)
    return out


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adam moment estimates for a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_size(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError("adam_step: params, grads and state lengths must agree")
    if not np.all(np.isfinite(grads)):
        raise NumericError("adam_step: non-finite gradient")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(m=m, v=v, t=t, beta1=state.beta1,
                                 beta2=state.beta2, eps=state.eps)
