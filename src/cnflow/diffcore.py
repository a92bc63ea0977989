"""Dense numeric core with hand-written reverse-mode gradients.

A batch (rows = samples) is what as_batch makes of any library input.
The module provides exactly what the coupling subnetworks need: MLP
forward/backward with an activation cache, an in-place Adam step over a
ParamStore that reads a gradient laid out like its parameters, the
thread count of the BLAS that runs the matmuls, and run_tasks, which runs
the row blocks of a flow pass or the fits of an experiment on workers.

The forward pass computes each layer in place in its matmul output, in
caller-given arrays if there are any, and the cache keeps those outputs.
Each layer is one dense() call, so a caller that lets a cached activation
be overwritten can compute it again, bit for bit, from the layer's input.
The backward pass consumes its cache: it writes each layer's input
gradient into the memory of the layer's input activation, which it no
longer needs, and the rest of its working memory (a relu mask and, when
it adds into a gradient, one weight-gradient product) comes from an
MlpScratch that a caller can keep from call to call.  Every product is
computed as a fresh one would be, so no bit depends on where it lands.

A ParamStore keeps its parameters, its two Adam moments and each gradient
as views of one flat float64 array per kind (a FlatViews dict), all laid
out alike: the backward pass writes (or adds) each weight and bias
gradient into its view in place, the Adam step runs over the flat arrays
in chunks that stay in cache, and a fit's early-stopping snapshot of the
parameters is one copy of the flat array.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

Array = np.ndarray

ACTIVATIONS = ("relu", "softplus")


def require_ints(owner, *names: str) -> None:
    """ValueError unless each named attribute of `owner` is an integer
    (bool is not)."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_positive_reals(owner, *names: str) -> None:
    """ValueError unless each named attribute of `owner` is a positive,
    finite real number (bool is not)."""
    for name in names:
        value = getattr(owner, name)
        if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                or not (math.isfinite(value) and value > 0)):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None without one; found on first use, not at import."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded; 1 without one."""
    funcs = _openblas()
    return funcs[0]() if funcs else 1


# held while BLAS runs at one thread, so that a second caller cannot save
# the lowered count and restore it after the first has restored the real one
_BLAS_LOCK = threading.Lock()


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with BLAS at one thread, restoring its thread count
    afterwards, also when the body raises."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, put = funcs
    with _BLAS_LOCK:
        saved = get()
        put(1)
        try:
            yield
        finally:
            put(saved)


def run_tasks(tasks: Sequence[Callable[[], object]], workers: int = 1) -> list:
    """Run each task, a callable of no arguments, and return the results
    in task order.  Task i runs on worker i mod W, W = min(workers, number
    of tasks), so a caller may keep state per worker by that index; the
    calling thread is worker 0, and BLAS runs at one thread while W > 1.
    A worker stops at its first failing task, and once every worker has
    stopped, the exception of the lowest-index failing task is raised."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)

    def work(k: int):
        for i in range(k, len(tasks), workers):
            try:
                results[i] = tasks[i]()
            except Exception as exc:
                return i, exc

    with single_blas_thread(), ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(work, k) for k in range(1, workers)]
        failed = [item for item in (work(0), *(f.result() for f in futures)) if item]
    if failed:
        raise min(failed)[1]  # task indices differ, so no two exceptions are compared
    return results


def as_batch(x, cols: int | None = None) -> Array:
    """x as a 2-D C-contiguous float64 batch, x itself if it is one; any
    non-ndarray with a .data (a FeatureSet) gives that, a 1-D array is one
    row.  DimensionError for another rank or a column count other than
    cols; NumericError (exit 1) for a non-finite entry of rows given to a
    model, which a FeatureSet refuses when made (DegenerateDataError, 2)."""
    if not isinstance(x, np.ndarray):
        x = getattr(x, "data", x)
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D batch, got ndim={a.ndim}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"expected {cols} columns, got {a.shape[1]}")
    return require_finite(a, NumericError, "input batch contains non-finite values")


# elements per chunk of a finiteness check, whose mask is then 64 KiB
# whatever the size of the array checked
_FINITE_CHUNK = 65536


def all_finite(a) -> bool:
    """Whether every entry of a, a C-contiguous array or a scalar, is
    finite, checked chunk by chunk, so that no mask is the size of a."""
    flat = np.asarray(a).reshape(-1)
    return all(np.isfinite(flat[lo:lo + _FINITE_CHUNK]).all()
               for lo in range(0, flat.size, _FINITE_CHUNK))


def require_finite(a, error: type[Exception], message: str):
    """a, unless one of its entries is not finite (see all_finite): then
    error(message), the exception of the place that calls it."""
    if not all_finite(a):
        raise error(message)
    return a


@dataclass
class MlpSpec:
    """Fully connected network: in -> hidden * n_hidden_layers -> out."""

    in_width: int
    out_width: int
    hidden_width: int = 512
    n_hidden_layers: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.in_width < 0 or self.out_width < 1 or self.hidden_width < 1:
            raise DimensionError("MlpSpec widths must be positive")
        if self.n_hidden_layers < 0:
            raise DimensionError("n_hidden_layers must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per linear layer, input to output order."""
        widths = [self.in_width] + [self.hidden_width] * self.n_hidden_layers + [self.out_width]
        return list(zip(widths[:-1], widths[1:]))

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter, in declaration order."""
        shapes: dict[str, tuple[int, ...]] = {}
        for layer, (fan_in, fan_out) in enumerate(self.layer_dims()):
            shapes[f"w{layer}"] = (fan_in, fan_out)
            shapes[f"b{layer}"] = (fan_out,)
        return shapes


class FlatViews(dict):
    """A name -> array dict whose arrays are consecutive views, in
    insertion order, of the one flat float64 array `flat` (a new
    uninitialised one by default)."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], flat: Array | None = None):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.empty(sum(sizes)) if flat is None else flat
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[offset:offset + size].reshape(shape)
            offset += size


class ParamStore:
    """Named parameter arrays with parallel Adam moment arrays, built once
    from the shape of every parameter; the parameters start at zero.

    `params`, `m` and `v` are FlatViews over three flat arrays.  m and v
    are allocated on first use, so a model only scored never holds them,
    and reset_optimizer releases them, so a fitted one holds them no
    longer than its fit: np.zeros is calloc, whose pages stay untouched
    only while the allocator maps fresh ones, and once it reuses freed
    heap memory for a large array it clears (and so touches) every page
    of it."""

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        self.params = FlatViews(self.shapes, np.zeros(sum(map(math.prod, self.shapes.values()))))
        self.step = 0

    @functools.cached_property
    def m(self) -> FlatViews:
        return FlatViews(self.shapes, np.zeros(self.n_params()))

    @functools.cached_property
    def v(self) -> FlatViews:
        return FlatViews(self.shapes, np.zeros(self.n_params()))

    def new_grad(self) -> FlatViews:
        """An uninitialised gradient, laid out like the parameters."""
        return FlatViews(self.shapes)

    def reset_optimizer(self) -> None:
        """Release both moment arrays and set step to 0: the next Adam
        step allocates zero moments, as a new store's first step does."""
        self.__dict__.pop("m", None)
        self.__dict__.pop("v", None)
        self.step = 0

    def n_params(self) -> int:
        return self.params.flat.size


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator, zero_last: bool = False) -> dict[str, Array]:
    """Uniform +-sqrt(1/fan_in) init; zero_last zeroes the output layer."""
    out: dict[str, Array] = {}
    dims = spec.layer_dims()
    for layer, (fan_in, fan_out) in enumerate(dims):
        bound = math.sqrt(1.0 / max(fan_in, 1))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        if zero_last and layer == len(dims) - 1:
            w[...] = 0.0
        out[f"w{layer}"] = w
        out[f"b{layer}"] = b
    return out


def _activate(kind: str, h: Array, out: Array | None = None) -> Array:
    if kind == "relu":
        return np.maximum(h, 0.0, out=out)
    return np.logaddexp(0.0, h, out=out)  # softplus


def dense(a: Array, w: Array, b: Array, activation: str | None = None,
          out: Array | None = None) -> Array:
    """a @ w + b, then the activation unless it is None, computed in place
    in out (a new array by default): the arithmetic of every layer of
    mlp_forward, so a layer computed again from its input has its bits."""
    h = np.matmul(a, w, out=out)
    h += b
    return h if activation is None else _activate(activation, h, out=h)


def _input_grad(kind: str, a: Array, g: Array, w: Array, mask: Array) -> Array:
    """(g @ w.T) * f'(h), the input gradient of a layer whose input is the
    activation a = f(h), which is dead afterwards: relu computes it in a's
    memory once its mask is read into the boolean array `mask`, softplus
    takes f'(h) in a's memory."""
    if kind == "relu":
        # a = max(h, 0) > 0 exactly where h > 0, and the multiply casts the
        # mask to 1.0/0.0, the bits of a float mask
        np.greater(a, 0.0, out=mask)
        out = np.matmul(g, w.T, out=a)
        out *= mask
        return out
    # softplus: f'(h) = sigmoid(h) = 1 - exp(-a)
    deriv = np.negative(np.expm1(np.negative(a, out=a), out=a), out=a)
    out = g @ w.T
    out *= deriv
    return out


@dataclass
class MlpCache:
    """Activation record from mlp_forward, for one mlp_backward call;
    valid until the parameters change."""

    spec: MlpSpec
    prefix: str
    weights: list[Array]
    inputs: list[Array]   # activation entering each linear layer
    out_shape: tuple[int, int]
    spent: bool = False   # set by the backward pass, which overwrites the activations


class MlpScratch:
    """Backward-pass memory of a network for up to `rows` rows: a relu
    mask, and the product a.T @ g that an adding backward pass adds into a
    weight gradient."""

    def __init__(self, spec: MlpSpec, rows: int):
        self.mask = np.empty((rows, spec.hidden_width if spec.n_hidden_layers else 0), dtype=bool)
        self.weight_grad = np.empty(max(fan_in * fan_out for fan_in, fan_out in spec.layer_dims()))


def mlp_forward(store: ParamStore, spec: MlpSpec, x: Array, prefix: str = "",
                out: list[Array] | None = None) -> tuple[Array, MlpCache]:
    """The network's output for the rows of x and the cache mlp_backward
    needs.  Each hidden activation is computed in place in its layer's
    matmul output, which the cache keeps as the next layer's input.  With
    `out`, one array per layer with at least as many rows as x, every
    layer computes in place in the first rows of its array, so the output
    is a view of the last one."""
    x = as_batch(x, spec.in_width)
    dims = spec.layer_dims()
    cache = MlpCache(spec, prefix, [], [], (x.shape[0], spec.out_width))
    a = x
    for layer, (fan_in, fan_out) in enumerate(dims):
        w = store.params[prefix + f"w{layer}"]
        b = store.params[prefix + f"b{layer}"]
        if w.shape != (fan_in, fan_out):
            raise DimensionError(f"{prefix}w{layer} has shape {w.shape}, spec wants {(fan_in, fan_out)}")
        cache.weights.append(w)
        cache.inputs.append(a)
        a = dense(a, w, b, None if layer == len(dims) - 1 else spec.activation,
                  out=out[layer][:x.shape[0]] if out else None)
    return a, cache


def mlp_backward(cache: MlpCache, grad_out: Array, grads: FlatViews | None = None,
                 add: bool = False, scratch: MlpScratch | None = None,
                 grad_in: Array | None = None) -> tuple[FlatViews, Array]:
    """The gradients of sum(grad_out * output) with respect to the
    network's parameters and its input.  The parameter gradients are
    written in place into the views of `grads` (a new FlatViews of the
    network's parameters by default), or added to them with `add`, which
    needs `grads`; the input gradient is written to `grad_in` (a new
    array by default).

    The pass consumes the cache: each hidden layer's input gradient is
    computed in the memory of the layer's input activation, dead once its
    weight gradient is taken, so a second pass over the same cache raises.
    The rest of its memory comes from `scratch` (a new MlpScratch by
    default)."""
    if cache.spent:
        raise RuntimeError("an MlpCache serves one backward pass; run the forward pass again")
    if add and grads is None:
        raise ValueError("add needs the gradients to add into")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.out_shape:
        raise DimensionError(f"grad_out shape {grad_out.shape} != forward output {cache.out_shape}")
    cache.spent = True
    spec, prefix = cache.spec, cache.prefix
    if grads is None:
        grads = FlatViews({prefix + name: shape for name, shape in spec.param_shapes().items()})
    if scratch is None:
        scratch = MlpScratch(spec, grad_out.shape[0])
    g = grad_out
    for layer in range(len(cache.weights) - 1, -1, -1):
        a = cache.inputs[layer]
        gw, gb = grads[prefix + f"w{layer}"], grads[prefix + f"b{layer}"]
        if add:
            gw += np.matmul(a.T, g, out=scratch.weight_grad[:gw.size].reshape(gw.shape))
            gb += g.sum(axis=0)
        else:
            np.matmul(a.T, g, out=gw)
            g.sum(axis=0, out=gb)
        if layer == 0:
            g = np.matmul(g, cache.weights[0].T, out=grad_in)
        else:
            # a is the output of hidden layer layer - 1
            g = _input_grad(spec.activation, a, g, cache.weights[layer],
                            scratch.mask[:a.shape[0]])
    return grads, g


# elements per chunk of the Adam step, whose six chunks in flight (768 KiB)
# stay in a 2 MiB L2 cache from one operation of the chain to the next,
# and whose two scratch chunks and range-check temporaries are all the
# memory a step allocates.  Timed inside train-d128 fits of the 8x512
# model at D=128, chunk sizes rotating from step to step, 42-43 steps
# each, the median step took 27.4 ms in chunks of 65536, 27.6 ms of 16384
# and 27.1 ms of 32768 (2-core x86-64)
_ADAM_CHUNK = 16384
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator offset
# the largest gradient magnitude a step takes: g * g then stays finite, and
# v / c2, a bias-corrected average of past squares, at or below 2**1022
_MAX_GRAD = 2.0 ** 511


def _gradient_in_range(flat: Array) -> bool:
    """Whether every entry of the flat array lies within +-_MAX_GRAD (a NaN
    does not), checked chunk by chunk."""
    return all((np.abs(flat[lo:lo + _ADAM_CHUNK]) <= _MAX_GRAD).all()
               for lo in range(0, flat.size, _ADAM_CHUNK))


def adam_step(store: ParamStore, grads: FlatViews, lr: float) -> None:
    """In-place Adam update with bias correction from `grads`, a gradient
    laid out like the parameters (as `store.new_grad()` makes one); `grads`
    is only read.  A gradient entry that is not finite or lies beyond
    +-2**511 raises NumericError naming its parameter before anything is
    updated."""
    if not isinstance(grads, FlatViews) or grads.flat.size != store.n_params():
        raise DimensionError("the gradient must be a FlatViews of the store's size")
    flat_g = grads.flat
    n = flat_g.size
    if not _gradient_in_range(flat_g):  # name the first parameter whose gradient is out of range
        for name, g in grads.items():
            if not _gradient_in_range(g.reshape(-1)):
                raise NumericError(f"non-finite or overlarge gradient for {name!r}; "
                                   "parameters unchanged")
    t = store.step + 1
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    # the operations and their order are those of
    #   m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g g,
    #   p -= lr (m / c1) / (sqrt(v / c2) + eps)
    # per element, so the chunking changes no bit
    scratch_a, scratch_b = np.empty(min(n, _ADAM_CHUNK)), np.empty(min(n, _ADAM_CHUNK))
    for lo in range(0, n, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, n)
        p, m, v = store.params.flat[lo:hi], store.m.flat[lo:hi], store.v.flat[lo:hi]
        g = flat_g[lo:hi]
        a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
        m *= _BETA1
        np.multiply(1.0 - _BETA1, g, out=a)
        m += a
        v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        np.divide(m, c1, out=a)
        np.multiply(lr, a, out=a)
        a /= b
        p -= a
    store.step = t
