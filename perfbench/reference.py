"""Independent oracle for `cnflow score`: parses a v1 ``.cflw`` model file
and recomputes the negative log-density with plain numpy.

It shares no code with cnflow, so it checks the file format, the model
loader and the coupling forward pass at once: per block the permutation,
the relu MLP conditioner, the ``alpha * tanh(raw / alpha)`` log-scale
clamp and the affine map of the second half of the dimensions.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_HEADER = struct.Struct("<4sHIHId")


def reference_nll(model_bytes: bytes, x: np.ndarray) -> np.ndarray:
    magic, version, dim, n_blocks, hidden, alpha = _HEADER.unpack_from(model_bytes)
    if magic != b"CFLW" or version != 1 or dim < 2:
        raise ValueError("reference oracle reads v1 model files with dim >= 2 only")
    d_cond = (dim + 1) // 2
    d_trans = dim - d_cond
    shapes = [(d_cond, hidden), (hidden,), (hidden, hidden), (hidden,),
              (hidden, 2 * d_trans), (2 * d_trans,)]
    offset = _HEADER.size
    z = np.array(x, dtype=np.float64)
    logdet = np.zeros(z.shape[0])
    for _ in range(n_blocks):
        perm = np.frombuffer(model_bytes, "<u4", dim, offset).astype(np.int64)
        offset += 4 * dim
        params = []
        for shape in shapes:
            size = math.prod(shape)
            params.append(np.frombuffer(model_bytes, "<f8", size, offset).reshape(shape))
            offset += 8 * size
        w0, b0, w1, b1, w2, b2 = params
        u = z[:, perm]
        cond, trans = u[:, :d_cond], u[:, d_cond:]
        h = np.maximum(cond @ w0 + b0, 0.0)
        h = np.maximum(h @ w1 + b1, 0.0)
        raw = h @ w2 + b2
        s = alpha * np.tanh(raw[:, :d_trans] / alpha)
        z = np.concatenate([cond, trans * np.exp(s) + raw[:, d_trans:]], axis=1)
        logdet += s.sum(axis=1)
    if offset != len(model_bytes):
        raise ValueError("model file length does not match its header")
    return 0.5 * np.sum(z * z, axis=1) + 0.5 * dim * math.log(2.0 * math.pi) - logdet
