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
consecutive blocks of _BLOCK_ROWS rows, the tasks of diffcore.run_tasks
on as many workers as BLAS has threads.  Every coupling block of every
row block a worker runs computes in place in the worker's one workspace,
allocated per call and sized to the largest block: the working memory is
that of one block per worker whatever the batch size, and a block
allocates only its per-row log-scale sums and the mask of its finiteness
check.  Every step treats rows independently, and BLAS computes each
output row of a matmul the same way whatever the other rows are as long
as it keeps to one kernel, so the result is bitwise that of
one whole-batch pass unless BLAS picks a different kernel for a block's
smaller matmuls than for the whole batch's.  OpenBLAS splits a matmul's
rows and columns among its threads but never the inner sum, so the
number of workers does not change a bit either.

The cached pass of training (nll_with_backward) runs in a cached
workspace, which a fit builds once, sized to its largest batch; every
pass of every step computes in its first rows.  It keeps each coupling
block's arrays and hidden MLP activations but the first for the backward
pass; the first hidden activation, the conditioner output and exp(s)
are one array each that all blocks share, and the backward pass
computes each block's first hidden activation and exp(s) again (see
Workspace).  The backward pass runs in the same call as its forward
pass and computes in the memory of activations it no longer needs.

dim == 1 is a degenerate coupling: the conditioner set is empty, and the
subnetwork is a bias-only layer (an empty (0, 2) weight and a length-2
bias) whose bias holds the learned raw log-scale and shift.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .datasets import FRAME_VERSION, read_exactly, read_frame
from .diffcore import (FlatViews, MlpCache, MlpScratch, MlpSpec, ParamStore, as_batch,
                       blas_threads, dense, init_mlp_params, mlp_backward, mlp_forward,
                       require_finite, require_ints, require_positive_reals, run_tasks)
from .errors import DimensionError, FormatError, NumericError
from .oracle import LOG_2PI

Array = np.ndarray

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

    def __post_init__(self):
        require_ints(self, "n_blocks", "hidden_width")
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


def _subnet_spec(dim: int, cfg: FlowConfig) -> MlpSpec:
    """Conditioner of every block: the first ceil(dim / 2) permuted
    dimensions in, a raw log-scale and a shift per remaining dimension out."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    if dim == 1:
        return MlpSpec(0, 2, n_hidden_layers=0)
    d_trans = dim // 2
    return MlpSpec(dim - d_trans, 2 * d_trans, cfg.hidden_width, activation=cfg.activation)


def _assemble(dim: int, cfg: FlowConfig, subnet: MlpSpec, fill) -> FlowModel:
    """The model whose block i has the permutation that fill(i, views)
    returns once it has written the block's subnet parameters into
    `views`, a name -> array dict of their places in the model's store."""
    shapes = subnet.param_shapes()
    # allocated before any per-block structure: numpy refuses a size it cannot hold
    flat = np.zeros(cfg.n_blocks * sum(map(math.prod, shapes.values())))
    store = ParamStore({f"blk{i}.{name}": shape
                        for i in range(cfg.n_blocks) for name, shape in shapes.items()}, flat)
    blocks = []
    for i in range(cfg.n_blocks):
        prefix = f"blk{i}."
        perm = fill(i, {name: store.params[prefix + name] for name in shapes})
        blocks.append(CouplingBlock(i, perm, subnet.in_width, dim - subnet.in_width,
                                    subnet, prefix))
    return FlowModel(dim, blocks, store, cfg)


def init_model(dim: int, n_blocks: int = 8, hidden_width: int = 512,
               clamp_alpha: float = 3.0, seed: int = 0,
               activation: str = "relu") -> FlowModel:
    """The one builder of a fresh flow, deterministic for a given seed; the
    zero-initialized subnet output layers leave the permutations only."""
    cfg = FlowConfig(n_blocks, hidden_width, clamp_alpha, activation)
    subnet = _subnet_spec(dim, cfg)
    rng = np.random.default_rng(seed)

    def fill(i: int, views: dict[str, Array]) -> Array:
        perm = rng.permutation(dim).astype(np.int64)
        for name, value in init_mlp_params(subnet, rng, zero_last=True).items():
            views[name][...] = value
        return perm

    return _assemble(dim, cfg, subnet, fill)


class _CouplingArrays:
    """The arrays of one coupling step of up to `rows` rows: the
    conditioning and transformed halves of the permuted input, tanh(raw /
    alpha) (in exp_s's memory unless kept for a backward pass), exp_s, the
    exp of the clamped log-scale, which is the workspace's one array, and
    the output of each conditioner layer, of which the first (hidden) and
    the last (the raw log-scale and shift) are the workspace's `shared`
    arrays, keyed by layer index."""

    def __init__(self, model: FlowModel, rows: int, keep_th: bool, exp_s: Array,
                 shared: dict[int, Array]):
        spec = model.blocks[0].subnet
        d_trans = model.dim - spec.in_width
        self.cond = np.empty((rows, spec.in_width))
        self.trans = np.empty((rows, d_trans))
        self.exp_s = exp_s
        # tanh is needed only until the log-scale is formed, unless kept
        self.th = np.empty((rows, d_trans)) if keep_th else exp_s
        self.layers = [shared[layer] if layer in shared else np.empty((rows, fan_out))
                       for layer, (_, fan_out) in enumerate(spec.layer_dims())]


class Workspace:
    """The memory of passes of up to `rows` rows, reused from pass to pass.

    `blocks` holds the coupling arrays of each coupling block.  In a
    forward-only workspace (a worker of a forward-only call takes one)
    they are one set, which every coupling block of every row block
    computes in.  A cached one, which a training fit keeps for its cached
    passes, has a set per coupling block, which the backward pass reads,
    and the backward pass's own memory.  Either way the coupling blocks
    share exp(s) and the conditioner's first hidden activation and its
    output, so a cached block keeps only its cond, trans, th and the
    hidden activations after the first.  A forward pass reads a block's
    exp(s), raw log-scale and shift only before the next block's
    conditioner runs, and the backward pass writes each block's output
    gradient into the shared output.  The next block's conditioner
    overwrites the rest, so the backward pass computes it again, with the
    forward pass's operations and so with its bits: a block's exp(s) from
    its kept th, an elementwise multiply and exp, for (n_blocks - 1) x
    rows x floor(D/2) floats fewer, and its first hidden activation from
    its kept `cond`, one rows x ceil(D/2) x width matmul per block, for
    (n_blocks - 1) x rows x width floats fewer.  A pass over fewer rows
    uses the first rows of each array."""

    def __init__(self, model: FlowModel, rows: int, cached: bool = False):
        self.rows = rows
        dims = model.blocks[0].subnet.layer_dims()
        shared = {layer: np.empty((rows, dims[layer][1])) for layer in (0, len(dims) - 1)}
        exp_s = np.empty((rows, model.dim - dims[0][0]))
        if cached:
            self.blocks = [_CouplingArrays(model, rows, True, exp_s, shared)
                           for _ in model.blocks]
            # the latent gradient of every other block of a backward pass
            self.grad = np.empty((rows, model.dim))
            self.mlp = MlpScratch(model.blocks[0].subnet, rows)
        else:
            self.blocks = [_CouplingArrays(model, rows, False, exp_s, shared)] * model.n_blocks
        # the latent and log-determinant of a pass
        self.z = np.empty((rows, model.dim))
        self.logdet = np.empty(rows)


def _coupling(model: FlowModel, block: CouplingBlock, w: _CouplingArrays, n: int):
    """Run the conditioner on the first n rows of w.cond.  Returns the
    clamped log-scale alpha * tanh(s_raw / alpha), in w.exp_s (with the
    tanh in w.th), the shift t and the MLP cache."""
    raw, mlp_cache = mlp_forward(model.store, block.subnet, w.cond[:n], block.prefix, w.layers)
    th, s = w.th[:n], w.exp_s[:n]
    np.divide(raw[:, :block.d_trans], model.config.clamp_alpha, out=th)
    np.tanh(th, out=th)
    np.multiply(model.config.clamp_alpha, th, out=s)
    return s, raw[:, block.d_trans:], mlp_cache


def _nll(model: FlowModel, z: Array, logdet: Array) -> Array:
    """Per-sample NLL = ||z||^2 / 2 + D/2 log(2 pi) - logdet."""
    with np.errstate(over="ignore"):  # ||z||^2 overflows for finite but huge z; callers check
        return 0.5 * np.sum(z * z, axis=1) + 0.5 * model.dim * LOG_2PI - logdet


# inf and nan are caught by the explicit finiteness checks, whose message
# is then the only one
@np.errstate(over="ignore", invalid="ignore")
def _forward_pass(model: FlowModel, x: Array, z: Array, logdet: Array,
                  ws: Workspace) -> list[MlpCache]:
    """Write the latent of x to z and its log-determinant to logdet, and
    return the MLP cache of every block, which, with the block's arrays in
    ws, is what the backward pass needs when ws is a cached workspace."""
    n = x.shape[0]
    logdet[...] = 0.0
    caches = []
    z_in = x
    for block in model.blocks:
        w = ws.blocks[block.index]
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
        require_finite(z, NumericError, f"non-finite values after coupling block {block.index}")
        caches.append(mlp_cache)
        z_in = z
    return caches


@np.errstate(over="ignore", invalid="ignore")
def _inverse_pass(model: FlowModel, x: Array, z: Array, logdet: Array, ws: Workspace) -> None:
    """Write T(x) to z and the log-determinant of T at x to logdet."""
    n = x.shape[0]
    logdet[...] = 0.0
    z_in = x
    for block in reversed(model.blocks):
        w = ws.blocks[block.index]
        cond = w.cond[:n]
        cond[...] = z_in[:, :block.d_cond]
        s, t, _ = _coupling(model, block, w, n)
        logdet -= s.sum(axis=1)
        inv_exp_s = np.exp(np.negative(s, out=s), out=s)
        back = np.subtract(z_in[:, block.d_cond:], t, out=w.trans[:n])
        back *= inv_exp_s
        # undo the permutation: column perm[k] of the block's input was
        # column k of its permuted input
        z[:, block.perm[:block.d_cond]] = cond
        z[:, block.perm[block.d_cond:]] = back
        require_finite(z, NumericError, f"non-finite values inverting block {block.index}")
        z_in = z


def _nll_rows(model: FlowModel, x: Array, nll: Array, ws: Workspace) -> None:
    """Write the NLL of the rows of x to nll, with their latent in ws."""
    n = x.shape[0]
    z, logdet = ws.z[:n], ws.logdet[:n]
    _forward_pass(model, x, z, logdet, ws)
    nll[...] = _nll(model, z, logdet)


def _by_row_blocks(model: FlowModel, x: Array, step, *outs: Array) -> None:
    """Run the row-wise map step(model, rows, *out_rows, workspace) on
    consecutive blocks of _BLOCK_ROWS rows of x, one run_tasks task each on
    as many workers as BLAS has threads, writing each block's output rows."""
    n = x.shape[0]
    # the last block takes the remainder, so a block is shorter than
    # _BLOCK_ROWS only when the batch is: BLAS may use another kernel, with
    # another summation order, for a matmul of a few rows
    edges = [0, *range(_BLOCK_ROWS, n - _BLOCK_ROWS + 1, _BLOCK_ROWS), n]
    spans = list(zip(edges, edges[1:]))
    workers = min(len(spans), blas_threads())
    # block i runs on worker i mod workers, in that worker's workspace
    spaces = [Workspace(model, max(hi - lo for lo, hi in spans)) for _ in range(workers)]
    run_tasks([partial(step, model, x[lo:hi], *(out[lo:hi] for out in outs), spaces[i % workers])
               for i, (lo, hi) in enumerate(spans)], workers)


def forward_latent(model: FlowModel, x) -> tuple[Array, Array]:
    """z = T^-1(x) and the exact per-sample log |det J| of the map."""
    x = as_batch(x, model.dim)
    z, logdet = np.empty_like(x), np.empty(x.shape[0])
    _by_row_blocks(model, x, _forward_pass, z, logdet)
    return z, logdet


def log_prob(model: FlowModel, x) -> Array:
    """log p(x) = -||z||^2 / 2 - D/2 log(2 pi) + logdet, per sample."""
    x = as_batch(x, model.dim)
    nll = np.empty(x.shape[0])
    _by_row_blocks(model, x, _nll_rows, nll)
    return -require_finite(nll, NumericError, "non-finite negative log-likelihood")


def inverse(model: FlowModel, z, return_logdet: bool = False):
    """x = T(z); with return_logdet also the log |det J| of T at z."""
    z = as_batch(z, model.dim)
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


# inf and nan in the gradient are reported by adam_step's range check
@np.errstate(over="ignore", invalid="ignore")
def _backward_pass(model: FlowModel, ws: Workspace, caches: list[MlpCache], g: Array,
                   dld: Array, grads: FlatViews, add: bool) -> None:
    """Write (or with `add`, add) to grads the gradients of
    sum_i [g_i . z_i + dld_i * logdet_i] w.r.t. all parameters, where g,
    the latent gradient, is in the first rows of ws.z.  Before the
    block's backward, its exp(s) is computed again from its kept th as
    exp(alpha * th) in the shared exp_s, and its first hidden activation
    from its cond by diffcore.dense, both with the forward pass's
    operations and so with its bits.  Every step computes in ws memory
    that the pass no longer needs: the conditioner's output gradient in
    the shared conditioner output, 1 - th^2 in th (once exp(s) is taken
    from it), the conditioner's input gradient in cond, and each block's
    input gradient in whichever of ws.z and ws.grad does not hold its
    output gradient."""
    n = g.shape[0]
    spare = ws.grad[:n]
    params = model.store.params
    for block, mlp_cache in zip(reversed(model.blocks), reversed(caches)):
        w = ws.blocks[block.index]
        trans, th = w.trans[:n], w.th[:n]
        exp_s = np.multiply(model.config.clamp_alpha, th, out=w.exp_s[:n])
        np.exp(exp_s, out=exp_s)
        if block.subnet.n_hidden_layers:
            dense(w.cond[:n], params[block.prefix + "w0"], params[block.prefix + "b0"],
                  block.subnet.activation, out=w.layers[0][:n])
        g_out = g[:, block.d_cond:]
        d_raw = w.layers[-1][:n]
        d_s = np.multiply(g_out, trans, out=d_raw[:, :block.d_trans])
        d_s *= exp_s
        d_s += dld[:, None]
        np.square(th, out=th)
        d_s *= np.subtract(1.0, th, out=th)
        d_raw[:, block.d_trans:] = g_out
        _, g_cond_sub = mlp_backward(mlp_cache, d_raw, grads, add, ws.mlp, w.cond[:n])
        g[:, :block.d_cond] += g_cond_sub
        g_out *= exp_s
        spare[:, block.perm] = g
        g, spare = spare, g


def nll_with_backward(model: FlowModel, x, weigh: Callable[[Array], Array | None], *,
                      into: FlatViews | None = None,
                      workspace: Workspace | None = None) -> tuple[Array, FlatViews | None]:
    """Per-sample NLL vector from one cached forward pass, and the gradient
    of sum_i weights_i * nll_i through the same cache, where weights =
    weigh(nll) holds one weight per sample: a new gradient laid out like
    the model's parameters, or, given `into`, `into` with this one added
    to it in place.  When weigh returns None no backward pass runs and
    the gradient returned is `into` as it was.

    The pass runs in `workspace`, a cached Workspace of at least as many
    rows as x (a new one by default).

    The NLL is bitwise that of log_prob whenever log_prob runs the batch
    in one row block, and raises the same error when it is not finite.
    """
    x = as_batch(x, model.dim)
    n = x.shape[0]
    ws = Workspace(model, n, cached=True) if workspace is None else workspace
    if ws.rows < n:
        raise DimensionError(f"a workspace of {ws.rows} rows cannot hold a batch of {n}")
    z, logdet = ws.z[:n], ws.logdet[:n]
    caches = _forward_pass(model, x, z, logdet, ws)
    nll = require_finite(_nll(model, z, logdet), NumericError, "non-finite negative log-likelihood")
    weights = weigh(nll)
    if weights is None:
        return nll, into
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise DimensionError("weights must be one scalar per sample")
    grads = model.store.new_grad() if into is None else into
    _backward_pass(model, ws, caches, np.multiply(weights[:, None], z, out=z), -weights,
                   grads, into is not None)
    return nll, grads


def weighted_nll_grad(model: FlowModel, x, weights, *,
                      workspace: Workspace | None = None) -> tuple[Array, FlatViews]:
    """Per-sample NLL vector and the gradient of sum_i weights_i * nll_i,
    from nll_with_backward (in `workspace`)."""
    return nll_with_backward(model, x, lambda nll: weights, workspace=workspace)


_MAGIC = b"CFLW"
_HEADER = struct.Struct("<4sHIHId")


def save_model(model: FlowModel, path) -> None:
    """Versioned binary dump: header, then per block the permutation and
    the parameter arrays in declaration order as little-endian float64."""
    cfg = model.config
    if cfg.activation != "relu":
        raise ValueError("model file v1 stores relu subnets only")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, FRAME_VERSION, model.dim, model.n_blocks,
                              cfg.hidden_width, cfg.clamp_alpha))
        for block in model.blocks:
            fh.write(block.perm.astype("<u4").tobytes())
            for name in block.subnet.param_shapes():
                fh.write(np.ascontiguousarray(model.store.params[block.prefix + name],
                                              dtype="<f8").tobytes())


def _model_frame(dim: int, n_blocks: int, hidden: int, alpha: float):
    """The payload bytes, the dim, the config and the subnet of a model file header."""
    try:
        cfg = FlowConfig(n_blocks, hidden, alpha)
        subnet = _subnet_spec(dim, cfg)
    except ValueError as exc:
        raise FormatError(f"bad model file header: {exc}") from None
    block_bytes = 4 * dim + 8 * sum(map(math.prod, subnet.param_shapes().values()))
    return n_blocks * block_bytes, (dim, cfg, subnet)


def load_model(path) -> FlowModel:
    with open(path, "rb") as fh:
        dim, cfg, subnet = read_frame(fh, _HEADER, _MAGIC, "model", _model_frame)

        def fill(i: int, views: dict[str, Array]) -> Array:
            perm = np.empty(dim, dtype="<u4")
            read_exactly(fh, perm, "model file ended inside its payload")
            if sorted(perm.tolist()) != list(range(dim)):
                raise FormatError(f"block {i} permutation is not a bijection")
            # the parameters are read straight into their places in the store
            for view in views.values():
                read_exactly(fh, view, "model file ended inside its payload")
                if sys.byteorder == "big":
                    view.byteswap(inplace=True)
            return perm.astype(np.int64)

        return _assemble(dim, cfg, subnet, fill)
