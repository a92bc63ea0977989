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

dim == 1 is a degenerate coupling: the conditioner set is empty, and the
subnetwork is a bias-only layer (an empty (0, 2) weight and a length-2
bias) whose bias holds the learned raw log-scale and shift.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .diffcore import (MlpCache, MlpSpec, ParamStore, as_batch, mlp_backward,
                       mlp_forward, register_mlp)
from .errors import DimensionError, FormatError, NumericError

Array = np.ndarray

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class FlowConfig:
    n_blocks: int = 8
    hidden_width: int = 512
    clamp_alpha: float = 3.0
    activation: str = "relu"
    n_hidden_layers: int = 2


@dataclass
class CouplingBlock:
    index: int
    perm: Array
    inv_perm: Array
    d_cond: int
    d_trans: int
    subnet: MlpSpec
    prefix: str


@dataclass
class FlowModel:
    dim: int
    clamp_alpha: float
    blocks: list[CouplingBlock]
    store: ParamStore
    config: FlowConfig
    seed: int

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def init_model(dim: int, n_blocks: int = 8, hidden_width: int = 512,
               clamp_alpha: float = 3.0, seed: int = 0,
               activation: str = "relu", n_hidden_layers: int = 2) -> FlowModel:
    """Deterministic model for a given seed; the subnetwork output layers
    are zero-initialized so the initial map is the permutations only."""
    if dim < 1 or n_blocks < 1:
        raise DimensionError("dim and n_blocks must be >= 1")
    if clamp_alpha <= 0:
        raise ValueError("clamp_alpha must be positive")
    cfg = FlowConfig(n_blocks, hidden_width, clamp_alpha, activation, n_hidden_layers)
    rng = np.random.default_rng(seed)
    store = ParamStore()
    blocks = []
    d_cond = (dim + 1) // 2 if dim >= 2 else 0
    d_trans = dim - d_cond
    for i in range(n_blocks):
        perm = rng.permutation(dim).astype(np.int64)
        inv_perm = np.argsort(perm)
        prefix = f"blk{i}."
        if dim == 1:
            subnet = MlpSpec(0, 2, n_hidden_layers=0)
        else:
            subnet = MlpSpec(d_cond, 2 * d_trans, hidden_width, n_hidden_layers, activation)
        register_mlp(store, subnet, prefix, rng, zero_last=True)
        blocks.append(CouplingBlock(i, perm, inv_perm, d_cond, d_trans, subnet, prefix))
    return FlowModel(dim, clamp_alpha, blocks, store, cfg, seed)


def build_model(dim: int, cfg: FlowConfig, seed: int = 0) -> FlowModel:
    return init_model(dim, cfg.n_blocks, cfg.hidden_width, cfg.clamp_alpha,
                      seed, cfg.activation, cfg.n_hidden_layers)


@dataclass
class _BlockCache:
    trans_in: Array
    th: Array        # tanh(raw log-scale / alpha)
    exp_s: Array
    mlp_cache: MlpCache


def _coupling(model: FlowModel, block: CouplingBlock, cond: Array):
    """tanh(s_raw / alpha) and the shift t of the conditioner output; the
    clamped log-scale is alpha * tanh(s_raw / alpha)."""
    raw, mlp_cache = mlp_forward(model.store, block.subnet, cond, block.prefix)
    th = np.tanh(raw[:, :block.d_trans] / model.clamp_alpha)
    return th, raw[:, block.d_trans:], mlp_cache


def _nll(model: FlowModel, z: Array, logdet: Array) -> Array:
    """Per-sample NLL = ||z||^2 / 2 + D/2 log(2 pi) - logdet."""
    return 0.5 * np.sum(z * z, axis=1) + 0.5 * model.dim * LOG_2PI - logdet


def _forward_pass(model: FlowModel, x: Array, want_cache: bool):
    x = as_batch(x, model.dim)
    if not np.all(np.isfinite(x)):
        raise NumericError("input batch contains non-finite values")
    z = x
    logdet = np.zeros(x.shape[0])
    caches: list[_BlockCache] = []
    for block in model.blocks:
        u = z[:, block.perm]
        cond = u[:, :block.d_cond]
        trans = u[:, block.d_cond:]
        th, t, mlp_cache = _coupling(model, block, cond)
        s_eff = model.clamp_alpha * th
        exp_s = np.exp(s_eff)
        z = np.concatenate([cond, trans * exp_s + t], axis=1)
        logdet = logdet + s_eff.sum(axis=1)
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite values after coupling block {block.index}")
        if want_cache:
            caches.append(_BlockCache(trans, th, exp_s, mlp_cache))
    return z, logdet, caches


def forward_latent(model: FlowModel, x) -> tuple[Array, Array]:
    """z = T^-1(x) and the exact per-sample log |det J| of the map."""
    z, logdet, _ = _forward_pass(model, x, want_cache=False)
    return z, logdet


def log_prob(model: FlowModel, x) -> Array:
    """log p(x) = -||z||^2 / 2 - D/2 log(2 pi) + logdet, per sample."""
    z, logdet, _ = _forward_pass(model, x, want_cache=False)
    return -_nll(model, z, logdet)


def inverse(model: FlowModel, z, return_logdet: bool = False):
    """x = T(z); with return_logdet also the log |det J| of T at z."""
    x = as_batch(z, model.dim)
    logdet = np.zeros(x.shape[0])
    for block in reversed(model.blocks):
        cond = x[:, :block.d_cond]
        trans = x[:, block.d_cond:]
        th, t, _ = _coupling(model, block, cond)
        s_eff = model.clamp_alpha * th
        back = (trans - t) * np.exp(-s_eff)
        u = np.concatenate([cond, back], axis=1)
        x = u[:, block.inv_perm]
        logdet = logdet - s_eff.sum(axis=1)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite values inverting block {block.index}")
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
        for name, val in sub_grads.items():
            grads[name] = grads.get(name, 0.0) + val
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
    z, logdet, caches = _forward_pass(model, x, want_cache=True)
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
                              cfg.hidden_width, model.clamp_alpha))
        for block in model.blocks:
            fh.write(block.perm.astype("<u4").tobytes())
            for name in block.subnet.param_names():
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
        model = init_model(dim, n_blocks, hidden, alpha, seed=0)
        for block in model.blocks:
            raw = fh.read(4 * dim)
            if len(raw) != 4 * dim:
                raise FormatError(f"truncated permutation for block {block.index}")
            perm = np.frombuffer(raw, dtype="<u4").astype(np.int64)
            if sorted(perm.tolist()) != list(range(dim)):
                raise FormatError(f"block {block.index} permutation is not a bijection")
            block.perm = perm
            block.inv_perm = np.argsort(perm)
            for name in block.subnet.param_names():
                target = model.store.params[block.prefix + name]
                raw = fh.read(8 * target.size)
                if len(raw) != 8 * target.size:
                    raise FormatError(f"truncated parameters for {block.prefix}{name}")
                target[...] = np.frombuffer(raw, dtype="<f8").reshape(target.shape)
        if fh.read(1):
            raise FormatError("trailing bytes after model payload")
    return model


def parameter_count(model: FlowModel) -> int:
    return model.store.n_params()
