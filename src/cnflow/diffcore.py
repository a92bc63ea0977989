"""Dense numeric core with hand-written reverse-mode gradients.

Batches are plain 2-D C-contiguous float64 numpy arrays (rows = samples).
The module provides exactly what the coupling subnetworks need: MLP
forward/backward with an activation cache (or a forward pass in place in
caller-given arrays, with no cache), an in-place Adam step over a
ParamStore that reads a gradient dict, and the thread count of the BLAS
that runs the matmuls.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass, field

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


def as_batch(x, cols: int | None = None) -> Array:
    """Coerce to a 2-D float64 array, optionally checking the column count."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D batch, got ndim={a.ndim}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"expected {cols} columns, got {a.shape[1]}")
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


@dataclass
class ParamStore:
    """Named parameter arrays with parallel Adam moment arrays."""

    params: dict[str, Array] = field(default_factory=dict)
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    step: int = 0

    def register(self, name: str, value: Array) -> None:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        value = np.asarray(value, dtype=np.float64)
        self.params[name] = value
        # np.zeros takes calloc'd memory, which for a large array is fresh
        # pages nobody writes, so a model only scored never touches them
        self.m[name] = np.zeros(value.shape)
        self.v[name] = np.zeros(value.shape)

    def copy_params(self) -> dict[str, Array]:
        return {name: p.copy() for name, p in self.params.items()}

    def load_params(self, snapshot: dict[str, Array]) -> None:
        for name, p in snapshot.items():
            self.params[name][...] = p

    def reset_optimizer(self) -> None:
        for name in self.params:
            self.m[name][...] = 0.0
            self.v[name][...] = 0.0
        self.step = 0

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())


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


def _scale_by_activate_grad(kind: str, a: Array, g: Array) -> None:
    """g *= f'(h), the activation's derivative taken from its output a = f(h)."""
    if kind == "relu":
        # a = max(h, 0) > 0 exactly where h > 0, and the multiply casts the
        # mask to 1.0/0.0, the bits of a float mask
        g *= a > 0.0
    else:
        # softplus: f'(h) = sigmoid(h) = 1 - exp(-a)
        g *= -np.expm1(-a)


@dataclass
class MlpCache:
    """Activation record from mlp_forward; valid until the parameters change."""

    spec: MlpSpec
    prefix: str
    weights: list[Array]
    inputs: list[Array]   # activation entering each linear layer
    out_shape: tuple[int, int]


def mlp_forward(store: ParamStore, spec: MlpSpec, x: Array, prefix: str = "",
                out: list[Array] | None = None) -> tuple[Array, MlpCache | None]:
    """The network's output for the rows of x and the cache mlp_backward
    needs.  Each hidden activation is computed in place in its layer's
    matmul output, which the cache keeps as the next layer's input.  With
    `out`, one array per layer with at least as many rows as x, every
    layer computes in place in the first rows of its array, the output is
    a view of the last one, and no cache is built (None)."""
    x = as_batch(x, spec.in_width)
    dims = spec.layer_dims()
    cache = None if out else MlpCache(spec, prefix, [], [], (x.shape[0], spec.out_width))
    a = x
    for layer, (fan_in, fan_out) in enumerate(dims):
        w = store.params[prefix + f"w{layer}"]
        b = store.params[prefix + f"b{layer}"]
        if w.shape != (fan_in, fan_out):
            raise DimensionError(f"{prefix}w{layer} has shape {w.shape}, spec wants {(fan_in, fan_out)}")
        h = np.matmul(a, w, out=out[layer][:x.shape[0]] if out else None)
        h += b
        if cache:
            cache.weights.append(w)
            cache.inputs.append(a)
        if layer == len(dims) - 1:
            return h, cache
        a = _activate(spec.activation, h, out=h)


def mlp_backward(cache: MlpCache, grad_out: Array) -> tuple[dict[str, Array], Array]:
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.out_shape:
        raise DimensionError(f"grad_out shape {grad_out.shape} != forward output {cache.out_shape}")
    spec, prefix = cache.spec, cache.prefix
    grads: dict[str, Array] = {}
    g = grad_out
    n_layers = len(cache.weights)
    for layer in range(n_layers - 1, -1, -1):
        a = cache.inputs[layer]
        grads[prefix + f"w{layer}"] = a.T @ g
        grads[prefix + f"b{layer}"] = g.sum(axis=0)
        g = g @ cache.weights[layer].T
        if layer > 0:
            # a is the output of hidden layer layer - 1; g is a new array
            _scale_by_activate_grad(spec.activation, a, g)
    return grads, g


def adam_step(store: ParamStore, grads: dict[str, Array], lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place Adam update with bias correction from `grads`, which maps
    every parameter name to its gradient; `grads` is only read."""
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("betas must lie in [0, 1)")
    for name in store.params:
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"non-finite gradient for {name!r}; parameters unchanged")
    t = store.step + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    # two scratch arrays sized to the largest parameter, viewed in the shape
    # of each; the operations and their order are those of
    #   m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g g,
    #   p -= lr (m / c1) / (sqrt(v / c2) + eps)
    size = max((p.size for p in store.params.values()), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in store.params.items():
        g = grads[name]
        m = store.m[name]
        v = store.v[name]
        a = scratch_a[:p.size].reshape(p.shape)
        b = scratch_b[:p.size].reshape(p.shape)
        m *= beta1
        np.multiply(1.0 - beta1, g, out=a)
        m += a
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        np.divide(m, c1, out=a)
        np.multiply(lr, a, out=a)
        a /= b
        p -= a
    store.step = t
