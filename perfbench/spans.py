"""In-memory span recorder that wraps cnflow's public functions from outside.

Modules bind imported names at import time (``from .diffcore import
mlp_forward``), so a function is wrapped at every module attribute that
holds it, not only in its defining module.  ``Tracer.install`` does that
for the functions in ``LAYERS`` and ``Tracer.uninstall`` restores the
originals, so the untimed and untraced code paths run the library
untouched.

A span is ``[id, parent_id, name, start, end, unit, counts]``: ``unit``
is the run id of the operation (one CLI invocation, or the set-up) the
span belongs to and ``counts`` holds counters computed from the call's
arguments.  Counters marked "computed" (GFLOP, bytes) follow from array
shapes, not from hardware measurement.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, function) pairs that get a span; short names drop the
# "cnflow." prefix and become the per-layer metric prefixes
LAYERS = [
    ("diffcore", "mlp_forward"),
    ("diffcore", "mlp_backward"),
    ("diffcore", "adam_step"),
    ("flows", "weighted_nll_grad"),
    ("flows", "log_prob"),
    ("flows", "load_model"),
    ("flows", "save_model"),
    ("training", "contrastive_objective"),
    ("training", "nll_objective"),
    ("training", "train"),
    ("training", "proxy_auroc"),
    ("metrics", "auroc"),
    ("metrics", "outlier_score"),
    ("baselines", "ratio_score"),
    ("methods", "fit_method"),
    ("datasets", "load_features"),
    ("datasets", "cluster_benchmark"),
    ("datasets", "mix_datasets"),
    ("cli", "main"),
]

def _rows(x) -> int:
    shape = np.shape(getattr(x, "data", x))
    return int(shape[0]) if len(shape) == 2 else 1


def _matmul_macs(spec) -> int:
    return sum(fan_in * fan_out for fan_in, fan_out in spec.layer_dims())


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        if part is None:
            h.update(b"<none>")
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _model_digest(model) -> str:
    params = model.store.params
    return _digest(model.dim, model.config, *[b.perm for b in model.blocks],
                   *[params[k] for k in sorted(params)])


# counters computed from a call's arguments (and result); each returns a dict
def _count_mlp_forward(args, kwargs, result):
    store, spec, x = args[:3]
    rows = _rows(x)
    return {"rows": rows, "gflop": 2.0 * rows * _matmul_macs(spec) / 1e9}


def _count_mlp_backward(args, kwargs, result):
    cache, grad_out = args[:2]
    rows = _rows(grad_out)
    # weight gradient a.T @ g and input gradient g @ W.T for every layer
    return {"rows": rows, "gflop": 4.0 * rows * _matmul_macs(cache.spec) / 1e9}


def _count_adam(args, kwargs, result):
    n = args[0].n_params()
    # minimum traffic: one read of the gradient for the finiteness check,
    # then read and write of the parameter, both moments and the gradient
    return {"mbytes": 9 * 8 * n / 1e6}


def _count_weighted(args, kwargs, result):
    x = args[1]
    w = np.asarray(kwargs.get("weights", args[2] if len(args) > 2 else None))
    out = {"rows": _rows(x)}
    if np.any(w < 0):
        out["neg_rows_sent"] = int(w.size)
        out["neg_rows_active"] = int(np.count_nonzero(w))
    return out


def _count_rows_arg1(args, kwargs, result):
    return {"rows": _rows(args[1])}


def _count_contrastive(args, kwargs, result):
    model, pos, neg = args[:3]
    return {"pos_rows": _rows(pos), "neg_rows": _rows(neg), "n_blocks": model.n_blocks}


def _count_train(args, kwargs, result):
    history = result[1]
    return {"epochs": len(history.train_loss)}


def _key_train(args, kwargs):
    """Digest of everything a fit depends on: initial model, data, config."""
    names = ["model", "inlier_set", "contrastive_set", "cfg", "val_contrastive_set"]
    bound = dict(zip(names, args))
    bound.update(kwargs)
    data = [getattr(bound.get(k), "data", bound.get(k))
            for k in ("inlier_set", "contrastive_set", "val_contrastive_set")]
    return _digest(_model_digest(bound["model"]), *data, bound.get("cfg"))


def _count_load_features(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "diffcore.mlp_forward": _count_mlp_forward,
    "diffcore.mlp_backward": _count_mlp_backward,
    "diffcore.adam_step": _count_adam,
    "flows.weighted_nll_grad": _count_weighted,
    "flows.log_prob": _count_rows_arg1,
    "training.contrastive_objective": _count_contrastive,
    "training.nll_objective": _count_rows_arg1,
    "training.train": _count_train,
    "metrics.outlier_score": _count_rows_arg1,
    "datasets.load_features": _count_load_features,
}

class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.unit = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the fit digest must be taken before training mutates the model
            counts = {"key": _key_train(args, kwargs)} if name == "training.train" else {}
            span = [len(spans), stack[-1] if stack else None, name, clock(), 0.0,
                    self.unit, counts]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, fn_name in LAYERS:
            fn = getattr(importlib.import_module(f"cnflow.{mod_name}"), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        modules = [m for n, m in sys.modules.items() if n == "cnflow" or n.startswith("cnflow.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON object per span, written once when the run ends."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, unit, counts in self.spans:
                fh.write(json.dumps({"run": self.run_id, "unit": unit, "id": sid,
                                     "parent": parent, "name": name, "start": start,
                                     "end": end, **counts}) + "\n")


def _self_times(spans) -> list[float]:
    """Duration minus the time covered by direct children (which, in one
    thread, never overlap each other)."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[4] - s[3]) - child[s[0]] for s in spans]


def unit_layers(spans, unit) -> dict[str, float]:
    """Per-layer totals for the spans of one operation (or the set-up)."""
    self_s = _self_times(spans)
    picked = [s for s in spans if s[5] == unit]
    out: dict[str, float] = defaultdict(float)
    for s in picked:
        name, counts = s[2], s[6]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += s[4] - s[3]
        out[f"{name}.self_s"] += self_s[s[0]]
        for key in ("rows", "pos_rows", "neg_rows", "gflop", "bytes", "mbytes", "epochs",
                    "neg_rows_sent", "neg_rows_active"):
            if key in counts:
                out[f"{name}.{key}"] += counts[key]
    # contrastive steps: negative-batch forward passes from the MLP rows
    # forwarded under each step, net of the one inlier forward pass
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s[0])
    neg_passes = steps = 0.0
    for s in picked:
        if s[2] != "training.contrastive_objective":
            continue
        todo, mlp_rows = list(children[s[0]]), 0
        while todo:
            c = spans[todo.pop()]
            if c[2] == "diffcore.mlp_forward":
                mlp_rows += c[6]["rows"]
            todo.extend(children[c[0]])
        counts = s[6]
        blocks = counts["n_blocks"]
        neg_passes += (mlp_rows - blocks * counts["pos_rows"]) / (blocks * counts["neg_rows"])
        steps += 1
    out["training.neg_forward_per_step"] = neg_passes / steps if steps else 0.0
    sent = out.pop("flows.weighted_nll_grad.neg_rows_sent", 0.0)
    active = out.pop("flows.weighted_nll_grad.neg_rows_active", 0.0)
    # nothing sent means nothing wasted
    out["training.neg_backward.useful_fraction"] = active / sent if sent else 1.0
    keys = [s[6]["key"] for s in picked if s[2] == "training.train"]
    out["training.train.repeat_fraction"] = (
        (len(keys) - len(set(keys))) / len(keys) if keys else 0.0)
    fits = out.get("training.train.calls", 0.0)
    out["training.epochs"] = out.pop("training.train.epochs", 0.0) / fits if fits else 0.0
    return dict(out)


# ratios of one operation's work; the set-up trains nothing, so these
# come from the operations alone
RATIOS = ("training.neg_forward_per_step", "training.neg_backward.useful_fraction",
          "training.train.repeat_fraction", "training.epochs")


def per_layer(spans, op_units) -> tuple[dict[str, float], bool]:
    """Set-up totals plus the median over operations of each per-op total.

    Also returns whether every shape-derived counter repeated exactly
    across the traced operations, as they must for a deterministic run.
    """
    setup = unit_layers(spans, "setup")
    ops = [unit_layers(spans, u) for u in op_units]
    names = set(setup).union(*ops)
    repeat_ok = all(len({op.get(n, 0.0) for op in ops}) <= 1
                    for n in names if not n.endswith((".s", ".self_s")))
    out = {}
    for n in names:
        op_median = statistics.median(op.get(n, 0.0) for op in ops) if ops else 0.0
        out[n] = op_median if n in RATIOS else setup.get(n, 0.0) + op_median
    return out, repeat_ok
