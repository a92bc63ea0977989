"""Invertible flow: permutation + affine coupling blocks over a standard
normal base.

Conventions
-----------
forward_latent maps data to latent (the normalizing direction): each block
first applies its fixed permutation, then an affine coupling that rescales
and shifts the second half of the dimensions conditioned on the first
half.  The per-dimension log-scale is soft-clamped to (-alpha, alpha) via
alpha * tanh(raw / alpha), so the coupling log-determinant is the sum of
clamped log-scales and exp() never overflows.

log_prob includes the -D/2 * log(2 pi) normalizing constant, so quadrature
of exp(log_prob) over a covering grid is a meaningful normalization check.

The forward-only maps (forward_latent, log_prob, inverse, sample) run in
consecutive blocks of _BLOCK_ROWS rows, shared out among as many workers
as BLAS has threads, each worker with BLAS at one thread.  Each worker
allocates one workspace, sized to the largest block, and every coupling
block of every row block it runs computes in place in it: the working
memory is that of one block per worker whatever the batch size, and a
block allocates only its per-row log-scale sums and the mask of its
finiteness check.  Every step treats rows independently, and BLAS
computes each output row of a matmul the same way whatever the other rows
are as long as it keeps to one kernel, so the result is bitwise that of
one whole-batch pass unless BLAS picks a different kernel for a block's
smaller matmuls than for the whole batch's.  OpenBLAS splits a matmul's
rows and columns among its threads but never the inner sum, so the
number of workers does not change a bit either.

dim == 1 is a degenerate coupling: the conditioner set is empty, and the
subnetwork is a bias-only layer (an empty (0, 2) weight and a length-2
bias) whose bias holds the learned raw log-scale and shift.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diffcore import (MlpCache, MlpSpec, ParamStore, as_batch, blas_threads,
                       init_mlp_params, mlp_backward, mlp_forward, require_ints,
                       require_positive_reals, single_blas_thread)
from .errors import DimensionError, FormatError, NumericError

Array = np.ndarray

LOG_2PI = math.log(2.0 * math.pi)

# rows per block of a forward-only pass; at width 512 one hidden activation
# of a block is 4 MiB.  log_prob of 16384x128 rows under the 8x512 model
# took 4.1 s in one pass and 2.8-2.9 s in blocks of 512-2048 rows (3.2 s
# at 256; medians of 3, 2-core x86-64, OpenBLAS 0.3.31)
_BLOCK_ROWS = 1024


@dataclass
class FlowConfig:
    n_blocks: int = 8
    hidden_width: int = 512
    clamp_alpha: float = 3.0
    activation: str = "relu"
    n_hidden_layers: int = 2

    def __post_init__(self):
        require_ints(self, "n_blocks", "hidden_width", "n_hidden_layers")
        if self.n_blocks < 1:
            raise DimensionError("n_blocks must be >= 1")
        require_positive_reals(self, "clamp_alpha")


@dataclass
class CouplingBlock:
    index: int
    perm: Array
    d_cond: int
    d_trans: int
    subnet: MlpSpec
    prefix: str


@dataclass
class FlowModel:
    dim: int
    blocks: list[CouplingBlock]
    store: ParamStore
    config: FlowConfig

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def init_model(dim: int, n_blocks: int = 8, hidden_width: int = 512,
               clamp_alpha: float = 3.0, seed: int = 0,
               activation: str = "relu", n_hidden_layers: int = 2) -> FlowModel:
    return build_model(dim, FlowConfig(n_blocks, hidden_width, clamp_alpha,
                                       activation, n_hidden_layers), seed)


def _subnet_spec(dim: int, cfg: FlowConfig) -> MlpSpec:
    """Conditioner of every block: the first ceil(dim / 2) permuted
    dimensions in, a raw log-scale and a shift per remaining dimension out."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    if dim == 1:
        return MlpSpec(0, 2, n_hidden_layers=0)
    d_trans = dim // 2
    return MlpSpec(dim - d_trans, 2 * d_trans, cfg.hidden_width, cfg.n_hidden_layers,
                   cfg.activation)


def _assemble(dim: int, cfg: FlowConfig, subnet: MlpSpec, block_arrays) -> FlowModel:
    """The model whose block i has the permutation and subnet parameters
    of the i-th (perm, params) pair of `block_arrays`."""
    store = ParamStore()
    blocks = []
    for i, (perm, params) in enumerate(block_arrays):
        prefix = f"blk{i}."
        for name, value in params.items():
            store.register(prefix + name, value)
        blocks.append(CouplingBlock(i, perm, subnet.in_width, dim - subnet.in_width,
                                    subnet, prefix))
    return FlowModel(dim, blocks, store, cfg)


def build_model(dim: int, cfg: FlowConfig, seed: int = 0) -> FlowModel:
    """Deterministic model for a given seed; the subnetwork output layers
    are zero-initialized so the initial map is the permutations only."""
    subnet = _subnet_spec(dim, cfg)
    rng = np.random.default_rng(seed)
    draws = ((rng.permutation(dim).astype(np.int64), init_mlp_params(subnet, rng, zero_last=True))
             for _ in range(cfg.n_blocks))
    return _assemble(dim, cfg, subnet, draws)


@dataclass
class _BlockCache:
    trans_in: Array
    th: Array        # tanh(raw log-scale / alpha)
    exp_s: Array
    mlp_cache: MlpCache


class _Workspace:
    """Arrays for the coupling steps of up to `rows` rows.  A worker of a
    forward-only call takes one and reuses it for every coupling block and
    row block it runs; the cached pass takes a new one per coupling block,
    whose cache keeps its arrays, and lets the MLP allocate (and cache)
    its own outputs."""

    def __init__(self, model: FlowModel, rows: int, cached: bool = False):
        spec = model.blocks[0].subnet
        d_trans = model.dim - spec.in_width
        self.cond = np.empty((rows, spec.in_width))
        self.trans = np.empty((rows, d_trans))
        self.exp_s = np.empty((rows, d_trans))
        # tanh is needed only until the log-scale is formed, unless cached
        self.th = np.empty((rows, d_trans)) if cached else self.exp_s
        self.layers = None if cached else [np.empty((rows, fan_out))
                                           for _, fan_out in spec.layer_dims()]
        # the latent and log-determinant of a row block, for log_prob
        self.z = None if cached else np.empty((rows, model.dim))
        self.logdet = None if cached else np.empty(rows)


def _coupling(model: FlowModel, block: CouplingBlock, ws: _Workspace, n: int):
    """Run the conditioner on the first n rows of ws.cond.  Returns the
    clamped log-scale alpha * tanh(s_raw / alpha), in ws.exp_s (with the
    tanh in ws.th), the shift t and the MLP cache."""
    raw, mlp_cache = mlp_forward(model.store, block.subnet, ws.cond[:n], block.prefix, ws.layers)
    th, s = ws.th[:n], ws.exp_s[:n]
    np.divide(raw[:, :block.d_trans], model.config.clamp_alpha, out=th)
    np.tanh(th, out=th)
    np.multiply(model.config.clamp_alpha, th, out=s)
    return s, raw[:, block.d_trans:], mlp_cache


def _nll(model: FlowModel, z: Array, logdet: Array) -> Array:
    """Per-sample NLL = ||z||^2 / 2 + D/2 log(2 pi) - logdet."""
    with np.errstate(over="ignore"):
        return 0.5 * np.sum(z * z, axis=1) + 0.5 * model.dim * LOG_2PI - logdet


# inf and nan are caught by the explicit finiteness checks, whose message
# is then the only one
@np.errstate(over="ignore", invalid="ignore")
def _forward_pass(model: FlowModel, x: Array, z: Array, logdet: Array,
                  ws: _Workspace | None = None) -> list[_BlockCache]:
    """Write the latent of x to z and its log-determinant to logdet, and
    return the block caches of the backward pass.  With a workspace
    (forward-only), every block computes in its arrays and no cache is
    kept."""
    n = x.shape[0]
    logdet[...] = 0.0
    caches: list[_BlockCache] = []
    z_in = x
    for block in model.blocks:
        w = ws or _Workspace(model, n, cached=True)
        cond, trans = w.cond[:n], w.trans[:n]
        # the permutations are bijections, so no index needs the bounds
        # check, whose mode="raise" would take a temporary copy
        np.take(z_in, block.perm[:block.d_cond], axis=1, out=cond, mode="clip")
        np.take(z_in, block.perm[block.d_cond:], axis=1, out=trans, mode="clip")
        s, t, mlp_cache = _coupling(model, block, w, n)
        logdet += s.sum(axis=1)
        exp_s = np.exp(s, out=s)
        z[:, :block.d_cond] = cond
        np.multiply(trans, exp_s, out=z[:, block.d_cond:])
        z[:, block.d_cond:] += t
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite values after coupling block {block.index}")
        if ws is None:
            caches.append(_BlockCache(trans, w.th[:n], exp_s, mlp_cache))
        z_in = z
    return caches


@np.errstate(over="ignore", invalid="ignore")
def _inverse_pass(model: FlowModel, x: Array, z: Array, logdet: Array, ws: _Workspace) -> None:
    """Write T(x) to z and the log-determinant of T at x to logdet."""
    n = x.shape[0]
    logdet[...] = 0.0
    z_in = x
    for block in reversed(model.blocks):
        cond = ws.cond[:n]
        cond[...] = z_in[:, :block.d_cond]
        s, t, _ = _coupling(model, block, ws, n)
        logdet -= s.sum(axis=1)
        inv_exp_s = np.exp(np.negative(s, out=s), out=s)
        back = np.subtract(z_in[:, block.d_cond:], t, out=ws.trans[:n])
        back *= inv_exp_s
        # undo the permutation: column perm[k] of the block's input was
        # column k of its permuted input
        z[:, block.perm[:block.d_cond]] = cond
        z[:, block.perm[block.d_cond:]] = back
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite values inverting block {block.index}")
        z_in = z


def _checked_batch(model: FlowModel, x) -> Array:
    """x as a float64 batch; the input is checked as a whole, so a
    non-finite row fails the same way in any row block."""
    x = as_batch(x, model.dim)
    if not np.all(np.isfinite(x)):
        raise NumericError("input batch contains non-finite values")
    return x


def _nll_rows(model: FlowModel, x: Array, nll: Array, ws: _Workspace) -> None:
    """Write the NLL of the rows of x to nll, with their latent in ws."""
    n = x.shape[0]
    z, logdet = ws.z[:n], ws.logdet[:n]
    _forward_pass(model, x, z, logdet, ws)
    nll[...] = _nll(model, z, logdet)


def _by_row_blocks(model: FlowModel, x: Array, step, *outs: Array) -> None:
    """Run the row-wise map step(model, rows, *out_rows, workspace) on
    consecutive blocks of _BLOCK_ROWS rows of x, writing each block's rows
    of the outputs.

    Worker k of W runs blocks k, k + W, k + 2W, ... in a workspace of its
    own, where W is the number of blocks or the BLAS thread count, whichever
    is smaller.  The calling thread is worker 0, and BLAS runs at one
    thread while there are more.  If blocks raise, the exception of the
    first of them is raised once every worker has stopped."""
    n = x.shape[0]
    # the last block takes the remainder, so a block is shorter than
    # _BLOCK_ROWS only when the batch is: BLAS may use another kernel, with
    # another summation order, for a matmul of a few rows
    edges = [0, *range(_BLOCK_ROWS, n - _BLOCK_ROWS + 1, _BLOCK_ROWS), n]
    n_blocks = len(edges) - 1
    rows = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    n_workers = 1 if n_blocks == 1 else min(n_blocks, blas_threads())
    at = [0] * n_workers  # the block each worker runs or stopped at

    def work(k: int) -> None:
        ws = _Workspace(model, rows)
        for i in range(k, n_blocks, n_workers):
            at[k] = i
            lo, hi = edges[i], edges[i + 1]
            step(model, x[lo:hi], *(out[lo:hi] for out in outs), ws)

    if n_workers == 1:
        work(0)
        return
    failed = []
    with single_blas_thread(), ThreadPoolExecutor(n_workers - 1) as pool:
        futures = {k: pool.submit(work, k) for k in range(1, n_workers)}
        try:
            work(0)
        except Exception as exc:
            failed.append((at[0], exc))
    for k, future in futures.items():
        if future.exception() is not None:
            failed.append((at[k], future.exception()))
    if failed:
        raise min(failed, key=lambda item: item[0])[1]


def forward_latent(model: FlowModel, x) -> tuple[Array, Array]:
    """z = T^-1(x) and the exact per-sample log |det J| of the map."""
    x = _checked_batch(model, x)
    z, logdet = np.empty_like(x), np.empty(x.shape[0])
    _by_row_blocks(model, x, _forward_pass, z, logdet)
    return z, logdet


def log_prob(model: FlowModel, x) -> Array:
    """log p(x) = -||z||^2 / 2 - D/2 log(2 pi) + logdet, per sample."""
    x = _checked_batch(model, x)
    nll = np.empty(x.shape[0])
    _by_row_blocks(model, x, _nll_rows, nll)
    if not np.all(np.isfinite(nll)):
        raise NumericError("non-finite negative log-likelihood")
    return -nll


def inverse(model: FlowModel, z, return_logdet: bool = False):
    """x = T(z); with return_logdet also the log |det J| of T at z."""
    z = _checked_batch(model, z)
    x, logdet = np.empty_like(z), np.empty(z.shape[0])
    _by_row_blocks(model, z, _inverse_pass, x, logdet)
    if return_logdet:
        return x, logdet
    return x


def sample(model: FlowModel, n: int, seed: int) -> Array:
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return inverse(model, rng.standard_normal((n, model.dim)))


def _backward_pass(model: FlowModel, caches: list[_BlockCache],
                   dz: Array, dld: Array) -> tuple[dict[str, Array], Array]:
    """Gradients of sum_i [dz_i . z_i-path + dld_i * logdet_i] w.r.t. all
    parameters and the input batch."""
    g = dz
    grads: dict[str, Array] = {}
    for block, cache in zip(reversed(model.blocks), reversed(caches)):
        g_out = g[:, block.d_cond:]
        d_s = g_out * cache.trans_in * cache.exp_s + dld[:, None]
        d_raw = np.concatenate([d_s * (1.0 - cache.th ** 2), g_out], axis=1)
        sub_grads, g_cond_sub = mlp_backward(cache.mlp_cache, d_raw)
        grads.update(sub_grads)
        g_u = np.concatenate([g[:, :block.d_cond] + g_cond_sub, g_out * cache.exp_s], axis=1)
        g_prev = np.empty_like(g_u)
        g_prev[:, block.perm] = g_u
        g = g_prev
    return grads, g


def weighted_nll_grad(model: FlowModel, x, weights) -> tuple[Array, dict[str, Array]]:
    """Per-sample NLL vector and the gradient of sum_i weights_i * nll_i.

    The building block for every training objective: plain NLL uses
    uniform weights 1/n, the clamped contrastive term uses negative
    weights on the active contrastive samples only.
    """
    x = _checked_batch(model, x)
    z, logdet = np.empty_like(x), np.empty(x.shape[0])
    caches = _forward_pass(model, x, z, logdet)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (z.shape[0],):
        raise DimensionError("weights must be one scalar per sample")
    grads, _ = _backward_pass(model, caches, weights[:, None] * z, -weights)
    return _nll(model, z, logdet), grads


_MAGIC = b"CFLW"
_VERSION = 1
_HEADER = struct.Struct("<4sHIHId")


def save_model(model: FlowModel, path) -> None:
    """Versioned binary dump: header, then per block the permutation and
    the parameter arrays in declaration order as little-endian float64."""
    cfg = model.config
    if cfg.activation != "relu" or cfg.n_hidden_layers != 2:
        raise ValueError("model file v1 stores the default subnet only "
                         "(relu activation, two hidden layers)")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, model.dim, model.n_blocks,
                              cfg.hidden_width, cfg.clamp_alpha))
        for block in model.blocks:
            fh.write(block.perm.astype("<u4").tobytes())
            for name in block.subnet.param_shapes():
                fh.write(np.ascontiguousarray(model.store.params[block.prefix + name],
                                              dtype="<f8").tobytes())


def load_model(path) -> FlowModel:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError("truncated model file header")
        magic, version, dim, n_blocks, hidden, alpha = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _VERSION:
            raise FormatError(f"unsupported model file version {version}")
        try:
            cfg = FlowConfig(n_blocks, hidden, alpha)
            subnet = _subnet_spec(dim, cfg)
        except ValueError as exc:
            raise FormatError(f"bad model file header: {exc}") from None
        shapes = subnet.param_shapes()
        block_bytes = 4 * dim + 8 * sum(math.prod(shape) for shape in shapes.values())
        expected = _HEADER.size + n_blocks * block_bytes
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatError(f"model file is {size} bytes, its header implies {expected}")

        def read(shape, dtype: str) -> Array:
            out = np.empty(shape, dtype=dtype)
            fh.readinto(out)
            return out

        def block_arrays():
            for i in range(n_blocks):
                perm = read(dim, "<u4").astype(np.int64)
                if sorted(perm.tolist()) != list(range(dim)):
                    raise FormatError(f"block {i} permutation is not a bijection")
                yield perm, {name: read(shape, "<f8").astype(np.float64, copy=False)
                             for name, shape in shapes.items()}

        return _assemble(dim, cfg, subnet, block_arrays())


def parameter_count(model: FlowModel) -> int:
    return model.store.n_params()
