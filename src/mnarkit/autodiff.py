"""Minimal reverse-mode automatic differentiation over dense 2-D arrays.

Values are float64 numpy arrays of shape (rows, cols). A ``Tensor`` records
the operation that produced it, so calling :func:`backward` on a scalar
result accumulates gradients into every upstream tensor. Randomness never
enters here; noise is always an explicitly passed constant array.

Every tensor carries ``requires_grad``. A leaf built with ``Tensor(x)`` has
it set; a leaf built with :func:`constant` does not, and never receives a
gradient. An operation's output requires a gradient iff one of its inputs
does: it keeps only those inputs as parents and skips the partials of the
others. A forward pass over constants alone therefore records no tape, and
each intermediate array is freed as soon as nothing refers to it.

Gradients are never written in place. A node's first gradient is the very
array its consumer passed in, which may be shared with another node or be
a read-only view, so every backward rule builds new arrays from ``g``.
Values are not written in place either once their tensor exists, so a
caller may keep a view of one without copying it. Parameter leaves are the
exception: in training they view the parameter vector, which Adam writes
in place once the step's :func:`backward` has returned, and so once every
:func:`branch` sub-tape has run its backward too. That is safe because
nothing reads a step's tape again: training drops it, and the next step
builds new leaves.

:func:`backward` releases what it no longer needs as it goes: once a
node's rule has run, or has been skipped because no gradient reached the
node, the node drops its gradient and its backward closure, and with them
the arrays the closure saved. After ``backward`` only leaves (tensors
without parents) hold a gradient; every value stays readable. A graph is
therefore backpropagated once: a second ``backward`` that reaches a
released node raises ``DomainError``.

A product with an inner dimension of 1, such as a decoder's first layer at
``latent_dim=1``, is an outer product: :func:`matmul` computes it without
BLAS, bit-equal to the BLAS call it replaces, signs of zeros included.

:func:`branch` builds a part of the graph that depends on one tensor ``x``
and on parameters nothing else reads, such as the mask decoder, as a
sub-tape of its own, which may run on another thread. On the outer tape it
is one node with ``x`` as its only parent. :func:`backward` starts the
sub-tape's backward pass as soon as the branch node's gradient is complete,
and adds the sub-tape's gradient into ``x`` when its serial order reaches
the branch node. That is where the same graph built inline would have added
it, so ``x.grad`` sums its contributions in the same order and has the same
bits whichever thread ran the sub-tape.
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
    """A 2-D array plus the closure that backpropagates into its parents.

    ``parents`` are the inputs of the operation that made the tensor; those
    that require no gradient are dropped, and with none left the tensor is
    a constant without a backward closure.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=True):
        self.value = np.atleast_2d(np.asarray(value, dtype=np.float64))
        self.grad = None
        if parents:
            parents = tuple(p for p in parents if p.requires_grad)
            requires_grad = bool(parents)
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g):
        # assignment is safe only because no gradient is written in place
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def constant(value) -> Tensor:
    """A leaf that never receives a gradient."""
    return Tensor(value, requires_grad=False)


def backward(result: Tensor) -> None:
    """Accumulate d(result)/d(leaf) into ``.grad`` of every leaf in the graph,
    releasing each interior node on the way (see the module docstring).

    ``result`` must be scalar-shaped (1x1), and its graph not yet
    backpropagated.
    """
    if result.value.size != 1:
        raise ShapeError(f"backward() needs a scalar result, got shape {result.value.shape}")
    _run_tape(result, np.ones_like(result.value))


def _run_tape(result: Tensor, grad: np.ndarray) -> None:
    """Backpropagate ``grad`` from ``result`` through the nodes it depends on,
    each after all of its consumers, starting the sub-tape of each branch
    node once its consumers have run (see branch), and releasing each
    interior node's gradient and closure once it has passed them on."""
    order = []
    seen = set()
    consumers = {}  # id of a branch node -> its consumers not yet run
    stack = [(result, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents and node._backward is None:
            raise DomainError("backward: the graph was already backpropagated, "
                              f"its node {node} is released")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if type(p._backward) is _SubTape:
                consumers[id(p)] = consumers.get(id(p), 0) + 1
            stack.append((p, False))
    result.grad = grad
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:  # a leaf keeps its gradient for the caller
            node.grad = node._backward = None
        if consumers:
            for p in node._parents:
                if id(p) in consumers:
                    consumers[id(p)] -= 1
                    if consumers[id(p)] == 0 and p.grad is not None:
                        p._backward.start(p.grad)


class _SubTape:
    """The backward closure of a branch node: the sub-tape from ``leaf`` to
    ``out``, backpropagated on ``pool`` once started, else at its turn, and
    then freed, by the thread that ran it."""

    __slots__ = ("out", "leaf", "x", "pool", "pending")

    def __init__(self, out: Tensor, leaf: Tensor, x: Tensor, pool):
        self.out, self.leaf, self.x, self.pool = out, leaf, x, pool
        self.pending = None

    def _run(self, g):
        out, self.out = self.out, None
        _run_tape(out, g)

    def start(self, g):
        if self.pool is not None:
            self.pending = self.pool.submit(self._run, g)

    def __call__(self, g):
        if self.pending is None:
            self._run(g)
        else:
            self.pending.result()  # raises the error of the sub-tape's backward
        if self.leaf.grad is not None:
            self.x._accumulate(self.leaf.grad)


def branch(fn, x: Tensor, pool=None):
    """Start ``fn(leaf)`` on a fresh leaf holding ``x``'s value, on ``pool``
    (a ``concurrent.futures`` executor) or, with None, at once on this thread.

    Returns ``join``: ``join()`` waits for ``fn`` and returns the branch node,
    whose value is that of fn's result and whose only parent is ``x``. Call
    it once. ``fn`` may read parameter leaves besides ``leaf`` only if no
    node outside the branch reads them, since their gradients arrive from
    the sub-tape's thread. A sub-tape's backward runs on ``pool`` too, so
    ``fn`` must not itself branch onto a pool it could wait on. The
    thread that runs the sub-tape's backward frees it right after, so that
    the rest of the outer backward can reuse its memory.
    """
    if not x.requires_grad:
        raise DomainError("branch: x must require a gradient")
    leaf = Tensor(x.value)
    pending = None if pool is None else pool.submit(fn, leaf)
    out = fn(leaf) if pending is None else None

    def join() -> Tensor:
        sub = out if pending is None else pending.result()
        return Tensor(sub.value, (x,), _SubTape(sub, leaf, x, pool))

    return join


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] == 1:
        # An outer product, such as a decoder's first layer at latent_dim=1.
        # einsum sums each single product onto +0.0, as BLAS does, so it is
        # bit-equal to ``@``, where a plain multiply gives -0.0 for +0.0. At
        # 2560-32000 rows by 128 it ran 2-3x faster than either (2-core
        # Xeon, OpenBLAS 0.3.31, one thread).
        v = np.einsum("ik,kj->ij", a.value, b.value)
    else:
        v = a.value @ b.value

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.value.T)
        if b.requires_grad:
            b._accumulate(a.value.T @ g)

    return Tensor(v, (a, b), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a (1, n) row broadcast over a's rows."""
    _check_broadcast("add", a.value.shape, b.value.shape)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.value.shape))

    return Tensor(a.value + b.value, (a, b), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a.value.shape, b.value.shape)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-_reduce_to(g, b.value.shape))

    return Tensor(a.value - b.value, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a.value.shape, b.value.shape)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.value, a.value.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.value, b.value.shape))

    return Tensor(a.value * b.value, (a, b), _bw)


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, (a,), lambda g: a._accumulate(g * c))


def mul_const(a: Tensor, c) -> Tensor:
    """Elementwise product with a constant array (no gradient into c)."""
    c = np.asarray(c, dtype=np.float64)
    return Tensor(a.value * c, (a,), lambda g: a._accumulate(g * c))


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    return Tensor(a.value + c, (a,), lambda g: a._accumulate(g))


def _check_broadcast(op: str, sa, sb, names=("a", "b")):
    """Refuse a second operand of shape sb that does not broadcast to sa,
    naming the operation and its two arguments."""
    ok = sa == sb or (sb == (1, sa[1])) or (sb == (sa[0], 1)) or sb == (1, 1)
    if not ok:
        raise ShapeError(f"{op}: incompatible shapes {sa} and {sb} of {names[0]} and {names[1]}")


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
    return Tensor(a.value.reshape(shape), (a,),
                  lambda g: a._accumulate(g.reshape(a.value.shape)))


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times in place: row i maps to rows i*k..i*k+k-1."""

    def _bw(g):
        n, c = a.value.shape
        a._accumulate(g.reshape(n, k, c).sum(axis=1))

    return Tensor(np.repeat(a.value, k, axis=0), (a,), _bw)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    # the read-only broadcast view is a valid gradient: none is written in place
    return Tensor(a.value.sum(axis=axis, keepdims=True), (a,),
                  lambda g: a._accumulate(np.broadcast_to(g, a.value.shape)))


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    return Tensor(a.value.mean(keepdims=True).reshape(1, 1), (a,),
                  lambda g: a._accumulate(np.full_like(a.value, g[0, 0] / n)))


# ---------------------------------------------------------------------------
# activations and likelihoods


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: exp(-|x|) is exp(x) for x < 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh(a: Tensor) -> Tensor:
    v = np.tanh(a.value)
    return Tensor(v, (a,), lambda g: a._accumulate(g * (1.0 - v * v)))


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function with outputs clamped to [PROB_FLOOR, 1-PROB_FLOOR]."""
    v = np.clip(_logistic(a.value), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return Tensor(v, (a,), lambda g: a._accumulate(g * v * (1.0 - v)))


def softplus(a: Tensor) -> Tensor:
    return Tensor(np.logaddexp(0.0, a.value), (a,),
                  lambda g: a._accumulate(g * _logistic(a.value)))


def std_head(pre: Tensor) -> Tensor:
    """Standard-deviation head: softplus plus STD_FLOOR, clipped to
    [STD_FLOOR, STD_CAP] with a zero gradient outside.

    One node, bit-identical in value and gradient to softplus, then adding
    the floor, then a straight-through clip.
    """
    v = np.logaddexp(0.0, pre.value)
    v += STD_FLOOR
    inside = (v > STD_FLOOR) & (v < STD_CAP) if pre.requires_grad else None
    np.clip(v, STD_FLOOR, STD_CAP, out=v)
    return Tensor(v, (pre,), lambda g: pre._accumulate((g * inside) * _logistic(pre.value)))


def dense(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """Affine map x @ w + b with b a (1, out) row, then ``act`` ("tanh" or None).

    One node: the bias and tanh are applied in place on the product, which
    is bit-identical to ``tanh(add(matmul(x, w), b))``.
    """
    if act not in (None, "tanh"):
        raise DomainError(f"dense: unknown activation {act!r}")
    if b.value.shape != (1, w.value.shape[1]):
        raise ShapeError(f"bias shape {b.value.shape} does not match weight cols {w.value.shape[1]}")
    # the product comes from matmul, looked up at call time, and is private
    # to this call, so it may be overwritten
    v = matmul(x, w).value
    v += b.value
    if act == "tanh":
        np.tanh(v, out=v)

    def _bw(g):
        if act == "tanh":
            # g * (1 - v*v) in one buffer, in the same order
            t = v * v
            np.subtract(1.0, t, out=t)
            g = np.multiply(g, t, out=t)
        if x.requires_grad:
            x._accumulate(g @ w.value.T)
        if w.requires_grad:
            w._accumulate(x.value.T @ g)
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.value.shape))

    return Tensor(v, (x, w, b), _bw)


def gaussian_log_density(x, mean, std) -> Tensor:
    """Elementwise log N(x; mean, std^2); any argument may be a constant array."""
    xt = x if isinstance(x, Tensor) else constant(x)
    mt = mean if isinstance(mean, Tensor) else constant(mean)
    st = std if isinstance(std, Tensor) else constant(std)
    _check_broadcast("gaussian_log_density", xt.value.shape, mt.value.shape, ("x", "mean"))
    _check_broadcast("gaussian_log_density", xt.value.shape, st.value.shape, ("x", "std"))
    if np.any(st.value <= 0):
        raise DomainError("gaussian_log_density: std must be strictly positive")
    # mean and std broadcast to x's shape, so z and v have it
    z = (xt.value - mt.value) / st.value
    v = -np.log(st.value) - 0.5 * LOG_2PI - 0.5 * z * z

    def _bw(g):
        inv = 1.0 / st.value
        if xt.requires_grad:
            xt._accumulate(_reduce_to(g * (-z * inv), xt.value.shape))
        if mt.requires_grad:
            mt._accumulate(_reduce_to(g * (z * inv), mt.value.shape))
        if st.requires_grad:
            st._accumulate(_reduce_to(g * ((z * z - 1.0) * inv), st.value.shape))

    return Tensor(v, (xt, mt, st), _bw)


def bernoulli_log_density(m, p: Tensor) -> Tensor:
    """Elementwise m*log(p) + (1-m)*log(1-p); m is a constant 0/1 array."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != p.value.shape:
        raise ShapeError(f"bernoulli_log_density: mask shape {m.shape} != p shape {p.value.shape}")
    if np.any((m != 0) & (m != 1)):
        raise DomainError("bernoulli_log_density: mask entries must be 0 or 1")
    if np.any(p.value <= 0) or np.any(p.value >= 1):
        raise DomainError("bernoulli_log_density: p must lie in the open unit interval")
    v = m * np.log(p.value) + (1.0 - m) * np.log1p(-p.value)
    return Tensor(v, (p,),
                  lambda g: p._accumulate(g * (m / p.value - (1.0 - m) / (1.0 - p.value))))


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
    return Tensor(m + np.log(total), (a,), lambda g: a._accumulate(g * shifted / total))


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


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError("adam_step: params, grads and state lengths must agree")
    if not np.all(np.isfinite(grads)):
        raise NumericError("adam_step: non-finite gradient")
    state.t += 1
    state.m[...] = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v[...] = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
