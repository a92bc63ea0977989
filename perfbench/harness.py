"""Workloads, timing loop and correctness gate of the cnflow benchmark.

Every workload drives ``cnflow.cli.main`` in-process on inputs that its
``setup`` generates from the seed and writes to files.  One operation is
one CLI invocation on a fixed amount of work: training configs set
``patience >= max_epochs``, so a last-ulp change cannot alter how many
epochs run.  Each operation's artifacts are checked, and must be
byte-identical across the operations of a run.

A run does the set-up ``SETUP_REPEATS`` times (median = ``setup_s``),
one traced warm-up operation that is not timed (it counts the rows an
operation moves), then timed operations until the time budget is spent.
With tracing on, timed operations alternate untraced/traced; per-layer
numbers come from the traced ones and the difference of the two medians
is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cnflow
from cnflow import cli, datasets, flows, metrics

import spans
from reference import reference_nll

SETUP_REPEATS = 5
MIN_OPS = 3          # timed operations per untraced run, at least
MIN_TRACED = 2       # traced and untraced operations per traced run, at least
ORACLE_RTOL = 1e-4   # admits float32 scoring arithmetic (~1000 float32 ulps)


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2))
    return path


class Workload:
    """One CLI subcommand on generated inputs.

    ``setup`` writes the inputs and returns the CLI arguments,
    ``check`` returns the list of problems with an operation's artifacts
    (empty when correct) and the path whose bytes must repeat,
    ``quality`` the AUROC in percent, ``rows`` the rows one operation
    moves, read from the warm-up's per-layer totals.
    """

    name = ""

    def __init__(self, tiny: bool = False):
        self.p = self.TINY if tiny else self.FULL

    def setup(self, inputs: Path, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> tuple[list[str], Path]:
        raise NotImplementedError

    def quality(self, out: Path) -> float:
        raise NotImplementedError

    @staticmethod
    def rows(layers: dict) -> float:
        """Inlier plus contrastive rows through training steps."""
        return (layers.get("training.contrastive_objective.pos_rows", 0.0)
                + layers.get("training.contrastive_objective.neg_rows", 0.0)
                + layers.get("training.nll_objective.rows", 0.0))


@dataclass
class SweepParams:
    n_train: int
    n_test: int
    n_pool: int
    contrastive_total: int
    width: int
    blocks: int
    batch: int
    epochs: int
    # cf hard AUROC (%), mean over the mu grid: median of 35 seeds, and
    # about five of their standard deviations (2.05 points)
    auroc_ref: float | None
    auroc_tol: float


class SweepD8(Workload):
    """Reduced `mu-sweep`: small matrices, many calls, active clamp, and a
    `flow_ratio` inlier flow refitted for every mu."""

    name = "sweep-d8"
    FULL = SweepParams(n_train=4000, n_test=600, n_pool=4000, contrastive_total=2000,
                       width=64, blocks=8, batch=512, epochs=4,
                       auroc_ref=55.7, auroc_tol=10.0)
    TINY = SweepParams(n_train=400, n_test=60, n_pool=400, contrastive_total=200,
                       width=8, blocks=2, batch=64, epochs=1,
                       auroc_ref=None, auroc_tol=0.0)
    METHODS = ("cf", "flow_ratio", "nll_flow")
    MU_GRID = (0.5, 1.0)

    def setup(self, inputs, out, seed):
        p = self.p
        b = datasets.cluster_benchmark(dim=8, seed=seed, radius=2.0, cluster_sd=0.5,
                                       hard_angle=0.25, broad_sd=2.0, n_train=p.n_train,
                                       n_test=p.n_test, n_pool=p.n_pool)
        # the CLI re-splits these files: inlier 0.5/0.3/0.2 into train,
        # contamination pool and test; hard 0.7/0.3; broad 0.85/0.15
        paths = {}
        for key, fs in (("inlier", b.inlier_train), ("hard", b.hard_pool),
                        ("rest", b.rest_test), ("broad", b.broad_pool)):
            paths[f"{key}_path"] = str(inputs / f"{key}.cftr")
            datasets.save_features(fs, paths[f"{key}_path"])
        cfg = _write_config(inputs / "mu_sweep.json", {
            "seed": seed, "reps": 1, "variant": "contaminated",
            "mu_grid": list(self.MU_GRID), "methods": list(self.METHODS),
            "contrastive_total": p.contrastive_total, "bench": paths,
            "model": {"n_blocks": p.blocks, "hidden_width": p.width, "clamp_alpha": 3.0},
            "train": {"batch_size": p.batch, "lr": 1e-3, "max_epochs": p.epochs,
                      "patience": p.epochs, "val_fraction": 0.1, "clamp_tau": 12.0},
        })
        return ["mu-sweep", "--config", str(cfg), "--out", str(out)]

    def _rows(self, out):
        return json.loads((out / "mu_sweep.json").read_text())["rows"]

    def check(self, out):
        problems = []
        rows = {(r["method"], r["mu"]): r for r in self._rows(out)}
        for m in self.METHODS:
            for mu in self.MU_GRID:
                r = rows.get((m, mu))
                if r is None:
                    problems.append(f"missing row ({m}, {mu})")
                elif not all(math.isfinite(r[k]) for k in ("auroc_hard", "auroc_rest", "sd")):
                    problems.append(f"non-finite row ({m}, {mu})")
        if not problems and self.p.auroc_ref is not None:
            auroc = self.quality(out)
            if abs(auroc - self.p.auroc_ref) > self.p.auroc_tol:
                problems.append(f"cf hard AUROC {auroc:.2f} is not within "
                                f"{self.p.auroc_tol} of {self.p.auroc_ref}")
        return problems, out / "mu_sweep.json"

    def quality(self, out):
        return statistics.mean(r["auroc_hard"] for r in self._rows(out) if r["method"] == "cf")


@dataclass
class TrainParams:
    dim: int
    n_rows: int
    n_heldout: int
    cluster_sd: float
    width: int
    blocks: int
    batch: int
    epochs: int


class TrainD128(Workload):
    """`cnflow train` of the default 8x512 model on 128-d hypersphere
    features: large matmuls and Adam over 2.9 M parameters."""

    name = "train-d128"
    FULL = TrainParams(dim=128, n_rows=2048, n_heldout=512, cluster_sd=0.05,
                       width=512, blocks=8, batch=256, epochs=4)
    TINY = TrainParams(dim=16, n_rows=128, n_heldout=32, cluster_sd=0.05,
                       width=16, blocks=2, batch=32, epochs=1)

    def setup(self, inputs, out, seed):
        p = self.p
        s = np.random.SeedSequence(seed).generate_state(8)

        def sphere(mean, sd, n, k):
            raw = datasets.gen_gaussian(mean, sd, n, seed=int(s[k]))
            return datasets.hypersphere_normalize(raw, noise_sigma=0.01, seed=int(s[k + 1]))

        e0 = np.eye(p.dim)[0]
        inliers = sphere(e0, p.cluster_sd, p.n_rows + p.n_heldout, 0)
        broad = sphere(np.zeros(p.dim), 1.0, p.n_rows + p.n_heldout, 2)
        datasets.save_features(inliers.take(np.arange(p.n_rows)), inputs / "inlier.cftr")
        datasets.save_features(broad.take(np.arange(p.n_rows)), inputs / "broad.cftr")
        # held-out rows for the quality AUROC, rounded like the feature files
        held = np.arange(p.n_rows, p.n_rows + p.n_heldout)
        self.heldout = (inliers.data[held].astype(np.float32).astype(np.float64),
                        broad.data[held].astype(np.float32).astype(np.float64))
        cfg = _write_config(inputs / "train.json", {
            "seed": seed, "data_path": str(inputs / "inlier.cftr"),
            "contrastive_path": str(inputs / "broad.cftr"), "objective": "contrastive",
            "model": {"n_blocks": p.blocks, "hidden_width": p.width, "clamp_alpha": 3.0},
            "train": {"batch_size": p.batch, "lr": 1e-3, "max_epochs": p.epochs,
                      "patience": p.epochs, "val_fraction": 0.1, "clamp_tau": 0.0},
        })
        return ["train", "--config", str(cfg), "--out", str(out)]

    def check(self, out):
        p = self.p
        problems = []
        history = json.loads((out / "history.json").read_text())
        if len(history["train_loss"]) != p.epochs:
            problems.append(f"history holds {len(history['train_loss'])} epochs, not {p.epochs}")
        if not all(math.isfinite(v) for v in history["train_loss"]):
            problems.append("non-finite training loss")
        model = flows.load_model(out / "model.cflw")
        if (model.dim, model.n_blocks, model.config.hidden_width) != (p.dim, p.blocks, p.width):
            problems.append("reloaded model has the wrong shape")
        return problems, out / "model.cflw"

    def quality(self, out):
        model = flows.load_model(out / "model.cflw")
        s_in, s_out = (metrics.outlier_score(model, x) for x in self.heldout)
        return 100.0 * metrics.auroc(s_in, s_out)


@dataclass
class ScoreParams:
    dim: int
    n_rows: int
    width: int
    blocks: int
    oracle_rows: int


class ScoreD128(Workload):
    """`cnflow score` of a labelled 128-d file under a perturbed 8x512
    model: forward-only inference, no backward pass, no Adam, no fits."""

    name = "score-d128"
    FULL = ScoreParams(dim=128, n_rows=16384, width=512, blocks=8, oracle_rows=64)
    TINY = ScoreParams(dim=16, n_rows=256, width=16, blocks=2, oracle_rows=8)

    def setup(self, inputs, out, seed):
        p = self.p
        rng = np.random.default_rng(seed)
        # a quarter of the rows are outliers with 1.2x the inlier spread
        labels = (rng.permutation(p.n_rows) < p.n_rows // 4).astype(np.int8)
        data = rng.standard_normal((p.n_rows, p.dim)) * np.where(labels, 1.2, 1.0)[:, None]
        datasets.save_features(datasets.FeatureSet(data, labels), inputs / "data.cftr")
        model = flows.init_model(p.dim, p.blocks, p.width, seed=seed)
        # init_model zeroes the output layers, which would make every
        # coupling the identity; perturb them so the scores exercise it
        for name, value in model.store.params.items():
            if name.endswith(("w2", "b2")):
                value += 0.05 * rng.standard_normal(value.shape)
        flows.save_model(model, inputs / "model.cflw")
        self.model_bytes = (inputs / "model.cflw").read_bytes()
        self.data = data.astype(np.float32).astype(np.float64)
        self.labels = labels
        self.oracle_idx = np.sort(rng.choice(p.n_rows, p.oracle_rows, replace=False))
        cfg = _write_config(inputs / "score.json", {
            "model_path": str(inputs / "model.cflw"), "data_path": str(inputs / "data.cftr")})
        return ["score", "--config", str(cfg), "--out", str(out)]

    def _read(self, out):
        lines = (out / "scores.csv").read_text().splitlines()
        body = [line.split(",") for line in lines[1:]]
        return lines[0], np.array([float(r[0]) for r in body]), [int(r[1]) for r in body]

    def check(self, out):
        problems = []
        header, scores, labels = self._read(out)
        if header != "score,label":
            problems.append(f"unexpected header {header!r}")
        if scores.size != self.p.n_rows:
            problems.append(f"{scores.size} score rows, expected {self.p.n_rows}")
        elif not np.all(np.isfinite(scores)):
            problems.append("non-finite scores")
        elif labels != self.labels.tolist():
            problems.append("labels do not match the scored file")
        else:
            ref = reference_nll(self.model_bytes, self.data[self.oracle_idx])
            got = scores[self.oracle_idx]
            bad = np.abs(got - ref) > ORACLE_RTOL * np.maximum(1.0, np.abs(ref))
            if np.any(bad):
                problems.append(f"{int(bad.sum())} of {bad.size} sampled scores differ from "
                                f"the reference coupling pass by more than rtol {ORACLE_RTOL}")
        return problems, out / "scores.csv"

    def quality(self, out):
        _, scores, labels = self._read(out)
        labels = np.array(labels)
        return 100.0 * metrics.auroc(scores[labels == 0], scores[labels == 1])

    @staticmethod
    def rows(layers):
        return layers.get("metrics.outlier_score.rows", 0.0)


WORKLOADS = {w.name: w for w in (SweepD8, TrainD128, ScoreD128)}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it exposes one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cnflow": cnflow.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, benchmark_json: Path,
        work_root: Path, tiny: bool = False) -> dict:
    """Run one workload, print every metric and the result line, return it."""
    specs = json.loads(benchmark_json.read_text())["per_layer" if trace else "end_to_end"]
    wl = WORKLOADS[name](tiny)
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    run_dir = work_root / run_id
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, out = run_dir / "inputs", run_dir / "out"
    inputs.mkdir(parents=True)
    tracer = spans.Tracer(run_id)

    setup_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        if trace:
            tracer.install()
        try:
            start = time.perf_counter()
            argv = wl.setup(inputs, out, seed)
            setup_s.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()

    attempted = failed = 0
    first_digest = None

    def operation(unit: str | None) -> float:
        nonlocal attempted, failed, first_digest
        attempted += 1
        start = time.perf_counter()
        try:
            try:
                if unit is not None:
                    tracer.unit = unit
                    tracer.install()
                # the CLI prints its result; keep stdout for the benchmark's lines
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
                tracer.uninstall()
            problems, artifact = wl.check(out) if code == 0 else ([f"exit code {code}"], None)
            if artifact is not None:
                digest = hashlib.sha1(artifact.read_bytes()).hexdigest()
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append(f"{artifact.name} differs from the first operation's")
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = ["exception"]
        if problems:
            failed += 1
            print(f"operation {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    operation("warmup")
    rows_per_op = wl.rows(spans.unit_layers(tracer.spans, "warmup"))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            traced.append(operation(f"op{len(traced)}"))
        else:
            plain.append(operation(None))
        enough = len(plain) >= (MIN_TRACED if trace else MIN_OPS) and len(traced) >= (
            MIN_TRACED if trace else 0)
        if enough and time.perf_counter() - start >= seconds:
            break

    run_s = statistics.median(plain)
    repeat_ok = True
    if trace:
        values, repeat_ok = spans.per_layer(tracer.spans, [f"op{i}" for i in range(len(traced))])
        values["trace.overhead_s"] = statistics.median(traced) - run_s
        tracer.write(run_dir / "spans.jsonl")
        if not repeat_ok:
            print("per-layer counters differ between traced operations", file=sys.stderr)
    else:
        values = {
            "run_s": run_s,
            "rows_per_s": rows_per_op / run_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auroc_pct": wl.quality(out) if failed == 0 else 0.0,
        }
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
                    for s in specs},
    }
    machine = machine_record()
    (run_dir / "result.json").write_text(json.dumps(
        {"run": run_id, "machine": machine, "operations": {"untraced_s": plain, "traced_s": traced},
         "setup_s": setup_s, "rows_per_op": rows_per_op, **result}, indent=2))
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)

    print(f"machine: {json.dumps(machine)}")
    print(f"{run_id}: {len(plain)} untraced and {len(traced)} traced operations, "
          f"{rows_per_op:.0f} rows each")
    for s in specs:
        print(f"  {s['name']} = {result['metrics'][s['name']]['value']:.6g} {s['unit']}")
    print(json.dumps(result))
    return result
