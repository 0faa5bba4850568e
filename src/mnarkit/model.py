"""Deep generative imputer with parallel data and mask decoders.

One amortized Gaussian encoder feeds two parameter-disjoint decoders: a
Gaussian data decoder and a Bernoulli mask decoder. Training maximizes an
importance-weighted lower bound on the joint likelihood of observed values
and the missing mask, with a temperature ``alpha`` on the mask term. A
``serial`` structure variant replaces the mask decoder with a single
dense+sigmoid head on the decoded data mean (selection-model baseline).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, backward
from .errors import ConsistencyError, DomainError, NumericError, ShapeError
from .masking import IncompleteMatrix, zero_impute
from .synth import make_rng

CHECKPOINT_VERSION = 3

ENCODER_VARIANTS = ("zero_impute", "set_function")
STRUCTURES = ("parallel", "serial")

# config-dataclass annotation (a string, see the __future__ import) -> the
# types its field accepts; a bool is never accepted as a number
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "tuple": (tuple, list),
                "tuple[str, ...]": (tuple, list)}


def _strict_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_field_types(config, prefix: str = "") -> None:
    """Refuse the first field of the config dataclass whose value is not of
    its annotated type; the DomainError names ``prefix`` + the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise DomainError(f"{prefix}{f.name}: must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and training hyperparameters."""

    latent_dim: int = 1
    hidden_sizes: tuple = (128, 128)
    k_train: int = 20          # importance samples per row during training
    l_impute: int = 1000       # importance samples per row during imputation
    alpha: float = 1.0         # mask-likelihood temperature; 0 disables the mask model
    learning_rate: float = 1e-3
    iterations: int = 10000
    batch_size: int = 128
    encoder: str = "zero_impute"
    set_embedding_size: int = 20
    set_code_size: int = 50
    seed: int = 0
    structure: str = "parallel"
    trace_interval: int = 100

    def __post_init__(self):
        check_field_types(self, "model.")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if not self.hidden_sizes or not all(_strict_int(h) and h >= 1 for h in self.hidden_sizes):
            raise DomainError("model.hidden_sizes: must be a non-empty sequence of ints >= 1, "
                              f"got {self.hidden_sizes}")
        for name in ("latent_dim", "k_train", "l_impute", "batch_size", "set_embedding_size",
                     "set_code_size", "trace_interval"):
            if getattr(self, name) < 1:
                raise DomainError(f"model.{name}: must be >= 1, got {getattr(self, name)}")
        if self.iterations < 0:
            raise DomainError(f"model.iterations: must be >= 0, got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"model.seed: must lie in [0, 2**64), got {self.seed}")
        if not 0 < self.learning_rate < math.inf:
            raise DomainError("model.learning_rate: must be finite and > 0, "
                              f"got {self.learning_rate}")
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"model.alpha: must be finite and >= 0, got {self.alpha}")
        if self.encoder not in ENCODER_VARIANTS:
            raise DomainError(f"model.encoder: unknown encoder variant {self.encoder!r}")
        if self.structure not in STRUCTURES:
            raise DomainError(f"model.structure: unknown structure {self.structure!r}")


class ParamBlocks:
    """Named weight arrays that are views of one flat float64 vector, the
    vector the optimizer updates in place.

    Names are prefixed ``enc.`` (encoder), ``dec_x.`` (data decoder) and
    ``dec_m.`` (mask decoder / serial mask head); the two decoder blocks
    share no parameters.
    """

    def __init__(self, arrays: dict):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        flat = np.concatenate([a.ravel() for a in arrays.values()]) if arrays else np.empty(0)
        self._view(flat, {k: a.shape for k, a in arrays.items()})

    def _view(self, flat: np.ndarray, shapes: dict) -> None:
        if flat.size != sum(math.prod(shape) for shape in shapes.values()):
            raise ShapeError("flat vector length does not match parameter blocks")
        self._flat, self._arrays, pos = flat, {}, 0
        for k, shape in shapes.items():
            size = math.prod(shape)
            self._arrays[k] = flat[pos:pos + size].reshape(shape)
            pos += size

    @property
    def names(self):
        return list(self._arrays)

    def __getitem__(self, name):
        return self._arrays[name]

    def __setitem__(self, name, value):
        """Replace or add a block; the blocks then view a new flat vector."""
        self.__init__({**self._arrays, name: value})

    @property
    def n_features(self) -> int:
        return self._arrays["dec_x.bmean"].shape[1]

    def flatten(self) -> np.ndarray:
        """The flat vector itself: writing it writes every block."""
        return self._flat

    def unflatten(self, flat: np.ndarray) -> "ParamBlocks":
        """Blocks of this layout that view ``flat``, a 1-D float64 vector."""
        out = ParamBlocks.__new__(ParamBlocks)
        out._view(flat, {k: a.shape for k, a in self._arrays.items()})
        return out

    def copy(self) -> "ParamBlocks":
        return self.unflatten(self._flat.copy())


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def param_shapes(config: ModelConfig, d: int) -> dict:
    """Name -> shape of every parameter block for a d-feature dataset, in
    the order init_params draws them. Bias names start with ``b``."""
    h = config.hidden_sizes
    s = {}
    if config.encoder == "zero_impute":
        sizes = [d, *h]
        for i in range(len(h)):
            s[f"enc.W{i}"] = (sizes[i], sizes[i + 1])
            s[f"enc.b{i}"] = (1, sizes[i + 1])
        top = h[-1]
    else:
        emb, code = config.set_embedding_size, config.set_code_size
        s["enc.Eval"] = (d, emb)
        s["enc.Eid"] = (d, emb)
        s["enc.Wcode"] = (emb, code)
        s["enc.bcode"] = (1, code)
        top = code
    s["enc.Wmean"] = (top, config.latent_dim)
    s["enc.bmean"] = (1, config.latent_dim)
    s["enc.Wstd"] = (top, config.latent_dim)
    s["enc.bstd"] = (1, config.latent_dim)

    sizes = [config.latent_dim, *h]
    for i in range(len(h)):
        s[f"dec_x.W{i}"] = (sizes[i], sizes[i + 1])
        s[f"dec_x.b{i}"] = (1, sizes[i + 1])
    s["dec_x.Wmean"] = (h[-1], d)
    s["dec_x.bmean"] = (1, d)
    s["dec_x.Wstd"] = (h[-1], d)
    s["dec_x.bstd"] = (1, d)

    if config.structure == "parallel":
        for i in range(len(h)):
            s[f"dec_m.W{i}"] = (sizes[i], sizes[i + 1])
            s[f"dec_m.b{i}"] = (1, sizes[i + 1])
        s["dec_m.Wout"] = (h[-1], d)
        s["dec_m.bout"] = (1, d)
    else:
        # serial selection head: single dense+sigmoid on the decoded data mean
        s["dec_m.W"] = (d, d)
        s["dec_m.b"] = (1, d)
    return s


def init_params(config: ModelConfig, d: int, rng=None) -> ParamBlocks:
    """Fresh parameter blocks for a d-feature dataset: zero biases, Glorot
    weights, and the set encoder's embeddings scaled per (value, id) pair."""
    if rng is None:
        rng = make_rng(config.seed)
    p = {}
    for name, shape in param_shapes(config, d).items():
        if name.split(".")[1].startswith("b"):
            p[name] = np.zeros(shape)
        elif name in ("enc.Eval", "enc.Eid"):
            p[name] = _glorot(rng, *shape) * np.sqrt(d / (1 + config.set_embedding_size))
        else:
            p[name] = _glorot(rng, *shape)
    return ParamBlocks(p)


def _nodes(params: ParamBlocks, requires_grad: bool = True) -> dict:
    """One leaf per block; constants (requires_grad=False) record no tape."""
    return {k: Tensor(params[k], requires_grad=requires_grad) for k in params.names}


# ---------------------------------------------------------------------------
# network pieces


def encode(data: IncompleteMatrix, nodes: dict, config: ModelConfig):
    """Posterior parameters (mean_z, std_z) for each row.

    The mask is never concatenated to the input: the zero_impute variant
    sees the zero-filled values; the set_function variant sums per-feature
    embeddings of the observed (feature-id, value) pairs only.
    """
    if config.encoder == "zero_impute":
        h = ad.constant(zero_impute(data))
        for i in range(len(config.hidden_sizes)):
            h = ad.dense(h, nodes[f"enc.W{i}"], nodes[f"enc.b{i}"], "tanh")
    else:
        filled = zero_impute(data)  # masked values; missing contributes nothing
        s = ad.add(ad.matmul(ad.constant(filled * data.mask), nodes["enc.Eval"]),
                   ad.matmul(ad.constant(data.mask), nodes["enc.Eid"]))
        h = ad.dense(s, nodes["enc.Wcode"], nodes["enc.bcode"], "tanh")
    mean = ad.dense(h, nodes["enc.Wmean"], nodes["enc.bmean"])
    std = ad.std_head(ad.dense(h, nodes["enc.Wstd"], nodes["enc.bstd"]))
    return mean, std


def decode_data(z: Tensor, nodes: dict, config: ModelConfig):
    """Gaussian likelihood parameters (mean_x, std_x) for all features."""
    h = z
    for i in range(len(config.hidden_sizes)):
        h = ad.dense(h, nodes[f"dec_x.W{i}"], nodes[f"dec_x.b{i}"], "tanh")
    mean = ad.dense(h, nodes["dec_x.Wmean"], nodes["dec_x.bmean"])
    std = ad.std_head(ad.dense(h, nodes["dec_x.Wstd"], nodes["dec_x.bstd"]))
    return mean, std


def decode_mask(z: Tensor, nodes: dict, config: ModelConfig) -> Tensor:
    """Per-entry observation probabilities from the parallel mask decoder."""
    h = z
    for i in range(len(config.hidden_sizes)):
        h = ad.dense(h, nodes[f"dec_m.W{i}"], nodes[f"dec_m.b{i}"], "tanh")
    return ad.sigmoid(ad.dense(h, nodes["dec_m.Wout"], nodes["dec_m.bout"]))


def decode_mask_serial(mean_x: Tensor, nodes: dict) -> Tensor:
    """Serial selection head: sigmoid of one dense layer on the data mean."""
    return ad.sigmoid(ad.dense(mean_x, nodes["dec_m.W"], nodes["dec_m.b"]))


def mask_probabilities(z: Tensor, mean_x: Tensor, nodes: dict, config: ModelConfig) -> Tensor:
    if config.structure == "parallel":
        return decode_mask(z, nodes, config)
    return decode_mask_serial(mean_x, nodes)


# Latent rows that one thread scores at once: a row tile (see _row_tiles)
# holds at least this many and, on more rows than that, fewer than twice as
# many, so at L=1000 a tile is 3-5 rows and each of its 128-wide
# activations takes 3-5 MB. A tile keeps the bits of one untiled pass as
# long as OpenBLAS computes each of its products with the same kernel.
# OpenBLAS 0.3.31 takes its small-matrix kernel, which sums a long inner
# dimension in another order, when M*N*K <= 1e6: for an output head from
# 128 hidden units to d features, below 1e6 / (128 * d) rows. So 2048 rows
# keep the bits for d >= 4 (the switch is at 1954 rows for d=4); heads of
# 1-3 features may move the last bits.
TILE_ROWS = 2048


def _row_tiles(n: int, k: int) -> list[slice]:
    """Near-equal slices of range(n), each at least ceil(TILE_ROWS / k) rows
    long unless n itself is shorter, so that a tile of k draws per row holds
    at least TILE_ROWS latent rows."""
    q = min(n, max(1, n // -(-TILE_ROWS // k)))
    return [slice(i * n // q, (i + 1) * n // q) for i in range(q)]


def _cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _tile_workers() -> int:
    """Threads that score tiles at once. Where numpy's OpenBLAS is loaded,
    one per CPU this process may run on, as mnarkit holds BLAS to one
    thread in every phase (see _blas_threads). Elsewhere, the CPUs divided
    by the threads each BLAS call takes, read from OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, as OpenBLAS reads them; with neither set to a
    positive int, BLAS already spreads each product over every core, so
    one thread scores the tiles in turn."""
    if _openblas() is not None:
        return _cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas_threads >= 1:
            return max(1, _cpus() // blas_threads)
    return 1


# glibc's mallopt parameters (malloc.h) and the values _keep_heap_mapped sets
_MALLOC_POLICY = (
    ("M_ARENA_MAX", -8, 1),                  # every thread allocates from one arena
    ("M_MMAP_THRESHOLD", -3, 32 * 1024**2),  # blocks below 32 MiB come from the heap
    ("M_TRIM_THRESHOLD", -1, -1),            # the heap is never trimmed
)


@functools.cache
def _keep_heap_mapped() -> None:
    """Set glibc's allocator policy for this process, once: one malloc arena
    for every thread, every block below 32 MiB (the largest mmap threshold
    glibc takes on 64-bit) from that arena's heap, and a heap that is never
    trimmed. Memory a training step or a row tile frees then stays mapped
    and the next one reuses it without faulting pages in again, while the
    threads share one high-water mark, so the peak does not grow with the
    thread count. It holds for the whole process: after a call, its
    resident memory does not shrink back when arrays are freed.

    Call it before starting a thread, since a thread that already has an
    arena keeps it. On a C library other than glibc it does nothing. A
    setting glibc refuses raises OSError naming it.
    """
    try:
        if not hasattr(os, "confstr") or not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):  # the name or its value is unknown here
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for name, param, value in _MALLOC_POLICY:
        if mallopt(param, value) == 0:
            raise OSError(f"glibc's mallopt refused {name} = {value}")


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles under numpy.libs, bound to the copy numpy loaded; None where no
    such library is loaded (another BLAS, another platform)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:  # RTLD_NOLOAD: bind a library already loaded, never load one
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


# the BLAS thread count is global to the process: the mnarkit calls inside
# _blas_threads now, and the count the outermost of them found
_blas_lock = threading.Lock()
_blas_held = {"depth": 0, "saved": None}


@contextlib.contextmanager
def _blas_threads():
    """Run the block with numpy's OpenBLAS on one thread, then set back the
    count found on entry, also on error. Calls that nest, or run at once on
    several threads, share one depth count, and the last to leave sets back
    the count the first one found. Where numpy's OpenBLAS is not loaded it
    does nothing."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    with _blas_lock:
        found = get()
        if _blas_held["depth"] == 0:
            _blas_held["saved"] = found
        _blas_held["depth"] += 1
        set_(1)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_held["depth"] -= 1
            set_(found if _blas_held["depth"] else _blas_held["saved"])


def _map_tiles(tiles: list, fn) -> None:
    """fn(tile) for every tile, on _tile_workers() threads.

    numpy releases the interpreter lock in BLAS and in ufuncs, so the tiles'
    arithmetic runs in parallel. Each thread takes the next tile when it is
    done with one, so a thread whose core is taken for a while leaves its
    share to the others instead of holding up the call. The calling thread
    takes part, so the pool has one thread fewer. All threads allocate
    from one malloc arena (see _keep_heap_mapped). An error raised by fn
    comes out unchanged.
    """
    workers = min(_tile_workers(), len(tiles))
    pending = iter(tiles)
    take = threading.Lock()

    def run():
        while True:
            with take:
                tile = next(pending, None)
            if tile is None:
                return
            fn(tile)

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # no thread starts before a submit
        futures = [pool.submit(run) for _ in range(workers - 1)]
        run()
        for future in futures:
            future.result()  # raises the error of a tile scored there


def _mask_term(mask: np.ndarray, p_m: Tensor, alpha: float) -> Tensor:
    return ad.scale(ad.sum_axis(ad.bernoulli_log_density(mask, p_m), 1), alpha)


@dataclass
class LatentBatch:
    """K reparameterized posterior draws per row, flattened to (n*k, dim)."""

    z: Tensor
    mean_rep: Tensor
    std_rep: Tensor
    k: int


def sample_latent(mean_z: Tensor, std_z: Tensor, k: int, noise=None, rng=None) -> LatentBatch:
    n, dim = mean_z.value.shape
    if noise is None:
        noise = rng.standard_normal((n * k, dim))
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (n * k, dim):
        raise ShapeError(f"noise shape {noise.shape} != {(n * k, dim)}")
    mean_rep = ad.repeat_rows(mean_z, k)
    std_rep = ad.repeat_rows(std_z, k)
    z = ad.reparameterize(mean_rep, std_rep, noise)
    return LatentBatch(z=z, mean_rep=mean_rep, std_rep=std_rep, k=k)


@dataclass
class ImportanceWeightSet:
    """Per-row, per-draw log-weights, their normalized form, the four
    additive log-components (for diagnostics and tests), and the decoder
    outputs they were computed from."""

    log_w: np.ndarray       # (n, k)
    normalized: np.ndarray  # rows sum to 1
    components: dict        # name -> (n, k)
    node: Tensor            # graph handle, shape (n, k)
    decoded: tuple          # (mean_x, std_x, p_m), each (n, k, d); p_m None at
                            # alpha=0 and where a training pass forks the mask branch


def _normalize_rows(log_w: np.ndarray) -> np.ndarray:
    m = log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w - m)
    total = w.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(total)) or np.any(total <= 0):
        raise NumericError("importance weights degenerate (all underflowed)")
    return w / total


def importance_log_weights(data: IncompleteMatrix, latent: LatentBatch, nodes: dict,
                           config: ModelConfig, pool=None) -> ImportanceWeightSet:
    """log w = observed-data term + alpha * mask term + prior - posterior.

    The data term sums Gaussian log-densities over observed entries only;
    the mask term sums Bernoulli log-densities over all entries. With
    alpha=0 the mask model contributes exactly nothing (term and gradient).
    A pass over constants records no tape. In a pass with gradients, the
    parallel mask decoder and its term run as an autodiff branch on
    ``pool`` (inline with None) while this thread runs the data decoder.
    """
    n, k = data.shape[0], latent.k
    z, x, mask = latent.z, np.repeat(zero_impute(data), k, 0), np.repeat(data.mask, k, 0)
    fork = z.requires_grad and config.structure == "parallel" and config.alpha != 0.0
    if fork:  # the mask branch reads z and no parameter of the data branch
        join = ad.branch(lambda leaf: _mask_term(mask, decode_mask(leaf, nodes, config),
                                                 config.alpha), z, pool)
    mean_x, std_x = decode_data(z, nodes, config)
    data_term = ad.sum_axis(ad.mul_const(ad.gaussian_log_density(x, mean_x, std_x), mask), 1)
    p_m = mask_term = None
    if fork:
        mask_term = join()
    elif config.alpha != 0.0:
        p_m = mask_probabilities(z, mean_x, nodes, config)
        mask_term = _mask_term(mask, p_m, config.alpha)

    prior = ad.sum_axis(ad.gaussian_log_density(z, np.zeros((1, 1)), np.ones((1, 1))), 1)
    posterior = ad.sum_axis(ad.gaussian_log_density(z, latent.mean_rep, latent.std_rep), 1)

    # views, not copies: no tensor value is written in place (see autodiff)
    components = {
        "data": data_term.value.reshape(n, k),
        "prior": prior.value.reshape(n, k),
        "neg_posterior": -posterior.value.reshape(n, k),
    }
    total = ad.sub(ad.add(data_term, prior), posterior)
    if mask_term is not None:
        components["mask"] = mask_term.value.reshape(n, k)
        total = ad.add(total, mask_term)
    else:
        components["mask"] = np.zeros((n, k))

    node = ad.reshape(total, (n, k))
    log_w = node.value
    for name, comp in components.items():
        if not np.all(np.isfinite(comp)):
            raise NumericError(f"non-finite importance-weight component: {name}")
    return ImportanceWeightSet(log_w=log_w, normalized=_normalize_rows(log_w),
                               components=components, node=node,
                               decoded=tuple(None if t is None else t.value.reshape(n, k, -1)
                                             for t in (mean_x, std_x, p_m)))


def _forward_weights(chunk: IncompleteMatrix, nodes: dict, config: ModelConfig,
                     l_samples: int, rng=None, noise=None, pool=None):
    """One pass over the rows of chunk at l_samples latent draws each, taken
    from ``noise`` or else from rng: the weights and the decoder outputs
    mean_x, std_x and p_m (see ImportanceWeightSet.decoded)."""
    mean_z, std_z = encode(chunk, nodes, config)
    latent = sample_latent(mean_z, std_z, l_samples, noise=noise, rng=rng)
    weights = importance_log_weights(chunk, latent, nodes, config, pool)
    return (weights, *weights.decoded)


def _row_bounds(weights: ImportanceWeightSet, k: int) -> Tensor:
    """Each row's log of its mean importance weight over k draws, (n, 1)."""
    return ad.add_const(ad.log_sum_exp(weights.node, axis=1), -np.log(k))


def _row_pass(data: IncompleteMatrix, nodes: dict, config: ModelConfig, k: int, reduce,
              noise=None, key=None) -> None:
    """One pass without gradients at k latent draws per row: every row is
    encoded at once, then each row tile (see _row_tiles), on the tile pool
    (see _map_tiles), draws its latent rows, scores them and calls
    reduce(rows, weights, streams), which writes only those rows.

    A tile's draws are its rows' rows of ``noise`` (n*k, latent_dim), and
    streams is None; or else row i's draws are the first of its own stream,
    Philox keyed by ``key`` with i in the top word of its counter, so that
    no two rows' streams overlap, and streams holds the tile's streams, one
    per row, for reduce to draw more from. The tiles depend on n and k
    alone, and the pass runs BLAS on one thread whatever count the caller
    set (see _blas_threads), so no bit depends on the thread count or on
    chunk_rows.
    """
    _keep_heap_mapped()

    def tile(rows):
        if noise is None:
            streams = [np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))
                       for i in range(rows.start, rows.stop)]
            draws = np.concatenate([s.standard_normal((k, config.latent_dim)) for s in streams])
        else:
            streams, draws = None, noise[rows.start * k:rows.stop * k]
        latent = sample_latent(ad.constant(mean_z.value[rows]), ad.constant(std_z.value[rows]),
                               k, noise=draws)
        chunk = IncompleteMatrix(data.values[rows], data.mask[rows])
        reduce(rows, importance_log_weights(chunk, latent, nodes, config), streams)

    with _blas_threads():  # one BLAS thread per tile thread, one tile thread per CPU
        mean_z, std_z = encode(data, nodes, config)
        _map_tiles(_row_tiles(data.shape[0], k), tile)


def bound(data: IncompleteMatrix, params: ParamBlocks, config: ModelConfig,
          rng=None, noise=None) -> float:
    """Monte Carlo estimate of the importance-weighted lower bound.

    Pass ``noise`` of shape (n*k, latent_dim), k >= 1, for shared-randomness
    comparisons across k; otherwise draws k_train samples per row from rng.
    """
    n = data.shape[0]
    if noise is None:
        if rng is None:
            raise DomainError("bound needs rng or noise")
        noise = rng.standard_normal((n * config.k_train, config.latent_dim))
    noise = np.asarray(noise, dtype=np.float64)
    k = noise.shape[0] // n if noise.ndim == 2 and n else 0
    if k < 1 or noise.shape != (n * k, config.latent_dim):
        raise ShapeError(f"noise shape {noise.shape} is not (n*k, latent_dim) = "
                         f"({n}*k, {config.latent_dim}) for an int k >= 1")
    per_row = np.empty((n, 1))

    def reduce(rows, weights, _):
        per_row[rows] = _row_bounds(weights, k).value

    _row_pass(data, _nodes(params, requires_grad=False), config, k, reduce, noise=noise)
    return float(per_row.mean())


# ---------------------------------------------------------------------------
# training


# A training step that does not fork its mask branch splits its batch in two
# halves, the second on the helper thread, once each half holds at least this
# many values of the widest hidden layer (half rows x k_train x width). At
# the default batch, 64 rows x 20 draws a half, widths 128 and 64 split and
# width 32 does not. Measured on a 2-core Xeon at one BLAS thread, serial and
# alpha = 0 training at d=4 with the zero-fill encoder, ms/iteration split
# against whole (medians of 5 alternating 200-step calls): width 32 8.6 and
# 7.0 against 6.5 and 5.7, slower; width 64 10.7 and 9.6 against 11.5 and
# 10.7; width 128 14.4 and 14.4 against 18.9 and 20.1.
SPLIT_FLOOR = 2**16


def _train_tile(batch: IncompleteMatrix, noise: np.ndarray, params: ParamBlocks,
                config: ModelConfig, row_grad: float, it: int, pool=None):
    """Forward and backward pass of the rows of ``batch``, on parameter
    leaves of their own, with the gradient ``row_grad`` on each row's bound.
    Returns the leaves, which hold the gradients, the rows' bounds (rows, 1)
    and the log-weight components. A bound that is not finite is not
    backpropagated; a NumericError of the forward pass names the iteration.
    """
    nodes = _nodes(params)
    try:
        weights, *_ = _forward_weights(batch, nodes, config, config.k_train, noise=noise,
                                       pool=pool)
    except NumericError as e:
        raise NumericError(f"iteration {it}: {e}") from e
    rows = _row_bounds(weights, config.k_train)
    if np.all(np.isfinite(rows.value)):
        backward(ad.sum_axis(ad.scale(rows, row_grad), 0))
    return nodes, rows.value, weights.components


def _sum_gradients(grads: ParamBlocks, tiles: list) -> None:
    """Write into each block of ``grads`` the sum, in tile order, of the
    gradients of that block's leaves in ``tiles`` (0 where none has one)."""
    for name in grads.names:
        block = grads[name]
        for i, leaves in enumerate(tiles):
            g = leaves[name].grad
            if i == 0:
                block[...] = 0.0 if g is None else g
            elif g is not None:
                block += g


def train(dataset: IncompleteMatrix, config: ModelConfig):
    """Fit by Adam on minibatches; returns (params, trace).

    trace is a list of (iteration, bound) pairs sampled every
    ``trace_interval`` iterations, the bound being the mean of the batch
    rows' bounds. Every step runs BLAS on one thread (see _blas_threads),
    and the second CPU, where _tile_workers() gives two or more, serves a
    helper thread: in the parallel structure at alpha > 0 it runs each
    step's mask branch, forward and backward (see importance_log_weights
    and autodiff.branch). Any other step, once half its batch holds
    SPLIT_FLOOR values of the widest hidden layer, is two halves, each
    encoded, decoded and backpropagated on parameter leaves of its own, the
    second on the helper thread (in turn without one); each row's bound
    gets the gradient -1/rows, and the halves' gradients are added in half
    order. The result is deterministic given config.seed and bit-identical
    whatever _tile_workers() gives and whatever BLAS thread count the
    caller set. Each step's tape is dropped when the step ends; its memory
    stays mapped for the next step (see _keep_heap_mapped). A non-finite
    gradient raises NumericError naming the iteration and the first
    parameter block, in the order of ``params.names``, whose gradient is
    not finite.
    """
    _keep_heap_mapped()
    rng = make_rng(config.seed)
    n, d = dataset.shape
    params = init_params(config, d, rng)
    flat = params.flatten()
    grads = params.unflatten(np.empty_like(flat))
    state = AdamState.for_size(flat.size)
    trace = []
    order = rng.permutation(n)
    pos = 0
    take = min(config.batch_size, n)
    fork = config.structure == "parallel" and config.alpha != 0.0
    split = not fork and take // 2 * config.k_train * max(config.hidden_sizes) >= SPLIT_FLOOR
    tiles = [slice(0, take // 2), slice(take // 2, take)] if split else [slice(0, take)]
    # the helper thread starts on first use
    helper = (fork or split) and _tile_workers() > 1
    with _blas_threads(), ThreadPoolExecutor(1) if helper else contextlib.nullcontext() as pool:
        for it in range(config.iterations):
            if pos + take > n:
                order = rng.permutation(n)
                pos = 0
            idx = order[pos:pos + take]
            pos += take
            noise = rng.standard_normal((take * config.k_train, config.latent_dim))

            def step(rows):
                k = config.k_train
                batch = IncompleteMatrix(dataset.values[idx[rows]], dataset.mask[idx[rows]])
                return _train_tile(batch, noise[rows.start * k:rows.stop * k], params, config,
                                   -1.0 / take, it, pool if fork else None)

            ahead = pool.submit(step, tiles[-1]) if split and pool else None
            results = [step(rows) for rows in (tiles[:-1] if ahead else tiles)]
            if ahead:
                results.append(ahead.result())
            value = float(np.concatenate([bounds for _, bounds, _ in results]).mean())
            if not np.isfinite(value):
                stats = {k: (min(float(c[k].min()) for _, _, c in results),
                             max(float(c[k].max()) for _, _, c in results))
                         for k in results[0][2]}
                raise NumericError(f"non-finite bound at iteration {it}; "
                                   f"component ranges {stats}")
            if it % config.trace_interval == 0:
                trace.append((it, value))
            _sum_gradients(grads, [leaves for leaves, _, _ in results])
            # writes the leaves of this step's tapes, which nothing reads again
            try:
                adam_step(flat, grads.flatten(), state, config.learning_rate)
            except NumericError as e:
                block = next(k for k in params.names if not np.all(np.isfinite(grads[k])))
                raise NumericError(f"iteration {it}: {e} in block {block}") from e
            # free the step's tapes before the next step builds its own
            del results, ahead, noise
    return params, trace


# ---------------------------------------------------------------------------
# imputation


@dataclass
class ImputationResult:
    """Completed matrix plus the predicted per-entry observation probabilities."""

    completed: np.ndarray
    prob_mask: np.ndarray


def _check_count(name: str, value) -> None:
    if not _strict_int(value) or value < 1:
        raise DomainError(f"{name} must be an int >= 1, got {value!r}")


def _imputation_pass(data: IncompleteMatrix, params: ParamBlocks, config: ModelConfig,
                     rng, chunk_rows, reduce) -> None:
    """_row_pass at l_impute draws per row, row i drawing from its own
    stream, keyed by one draw from rng (default: make_rng((seed + 1) mod
    2**64), so the largest seed's default stream is make_rng(0)) and by i."""
    _check_count("chunk_rows", chunk_rows)
    if params.n_features != data.shape[1]:
        raise ConsistencyError(
            f"checkpoint has {params.n_features} features, dataset has {data.shape[1]}")
    if rng is None:
        rng = make_rng((config.seed + 1) % 2**64)
    _row_pass(data, _nodes(params, requires_grad=False), config, config.l_impute, reduce,
              key=rng.integers(2**64, dtype=np.uint64))


def impute(data: IncompleteMatrix, params: ParamBlocks, config: ModelConfig,
           rng=None, chunk_rows: int = 32) -> ImputationResult:
    """Self-normalized importance-sampling imputation.

    Missing entries get the weight-averaged decoded mean over l_impute
    latent draws; observed entries pass through bit-exactly. The
    probabilistic mask is the weight-averaged mask-decoder output; at
    alpha=0 the mask decoder gets no training signal, so it is 0.5.
    ``chunk_rows`` must be an int >= 1 and changes no bit of the result:
    rows are scored in tiles (see _row_pass), each from its own stream.
    A seed fixes the result for a fixed set of rows: encoding more or fewer
    rows at once can move a row's last bits (OpenBLAS picks its kernel by
    matrix size), so impute(data[:64]) need not equal the first 64 rows of
    impute(data) bit for bit.
    """
    completed = np.array(data.values, dtype=np.float64)
    prob_mask = np.full(data.shape, 0.5)

    def reduce(rows, weights, _):
        mean_x, _, p_m = weights.decoded
        w, miss = weights.normalized[:, :, None], data.mask[rows] == 0
        completed[rows][miss] = (w * mean_x).sum(axis=1)[miss]
        if p_m is not None:
            prob_mask[rows] = (w * p_m).sum(axis=1)

    _imputation_pass(data, params, config, rng, chunk_rows, reduce)
    return ImputationResult(completed=completed, prob_mask=prob_mask)


def multiple_impute(data: IncompleteMatrix, params: ParamBlocks, config: ModelConfig,
                    n_draws: int, rng=None, chunk_rows: int = 32) -> list:
    """Sampling-importance-resampling draws of the completed matrix.

    Each draw resamples one latent per row with probability proportional to
    the normalized weights, then samples missing entries from the data
    decoder's Gaussian at that latent. Observed entries are preserved. A
    row's latent draws, resampling uniforms and Gaussian noise all come
    from its own stream, so at the same rng impute sees the same latent
    draws. ``chunk_rows`` must be an int >= 1 and changes no bit. As with
    impute, a seed fixes the draws for a fixed set of rows only.
    """
    _check_count("n_draws", n_draws)
    draws = [np.array(data.values, dtype=np.float64) for _ in range(n_draws)]

    def reduce(rows, weights, streams):
        mean_x, std_x, _ = weights.decoded
        n_rows, L, d = mean_x.shape
        cum = np.cumsum(weights.normalized, axis=1)
        samples = np.empty((n_rows, n_draws, d))
        for r, stream in enumerate(streams):
            # the count of cum below each uniform, as cum never decreases
            pick = np.minimum(np.searchsorted(cum[r], stream.random(n_draws)), L - 1)
            samples[r] = mean_x[r, pick] + std_x[r, pick] * stream.standard_normal((n_draws, d))
        miss = data.mask[rows] == 0
        for t, draw in enumerate(draws):
            draw[rows][miss] = samples[:, t][miss]

    _imputation_pass(data, params, config, rng, chunk_rows, reduce)
    return draws


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ParamBlocks, config: ModelConfig) -> None:
    """Versioned npz layout: config echo as JSON plus raw float64 blocks,
    numeric and unicode arrays only, so the file loads without pickle."""
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "config_json": np.array(json.dumps(asdict(config))),
        "param_order": np.array(params.names),
    }
    for name in params.names:
        payload[f"param:{name}"] = params[name]
    np.savez(path, **payload)


def load_checkpoint(path):
    """Returns (params, config); bit-exact inverse of save_checkpoint.
    Never unpickles, so a crafted file cannot run code. Every block must be
    float64 with the name and shape that ``param_shapes`` gives for the
    config. A malformed file raises ConsistencyError naming the entry,
    block or config key."""
    with np.load(path, allow_pickle=False) as f:
        try:
            version = int(f["format_version"])
            if version != CHECKPOINT_VERSION:
                raise ConsistencyError(f"unsupported checkpoint version {version}")
            raw = json.loads(str(f["config_json"][()]))
            order = [str(x) for x in f["param_order"]]
            blocks = {name: f[f"param:{name}"] for name in order}
        except KeyError as e:  # numpy's message names the missing entry
            raise ConsistencyError(f"checkpoint {path}: {e.args[0]}") from e
        except ValueError as e:  # object arrays need pickle; malformed JSON
            raise ConsistencyError(f"checkpoint {path} is not a valid mnarkit checkpoint: {e}") from e
    for name, block in blocks.items():
        if block.dtype != np.float64:
            raise ConsistencyError(f"checkpoint {path}: block {name} has dtype {block.dtype}, "
                                   "not float64")
    if not isinstance(raw, dict):
        raise ConsistencyError(f"checkpoint {path}: config_json is not a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConsistencyError(f"checkpoint {path}: config_json has unknown key {unknown[0]}")
    try:
        config = ModelConfig(**raw)
    except DomainError as e:
        raise ConsistencyError(f"checkpoint {path}: config_json: {e}") from e
    params = ParamBlocks(blocks)
    _check_blocks(path, params, config)
    return params, config


def _check_blocks(path, params: ParamBlocks, config: ModelConfig) -> None:
    """Compare every block's name and shape with the config's param_shapes
    for the feature count of ``dec_x.bmean``."""
    got = {name: params[name].shape for name in params.names}
    want = param_shapes(config, (got.get("dec_x.bmean") or (1,))[-1])
    for name, shape in want.items():
        if name not in got:
            raise ConsistencyError(f"checkpoint {path}: block {name} is missing")
        if got[name] != shape:
            raise ConsistencyError(f"checkpoint {path}: block {name} has shape {got[name]}, "
                                   f"the config builds {shape}")
    extra = sorted(set(got) - set(want))
    if extra:
        raise ConsistencyError(f"checkpoint {path}: block {extra[0]} is not built by the config")
