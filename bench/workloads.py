"""The three benchmark workloads: inputs, operations and output checks.

Every input is drawn from the workload seed, the cycle number and the
position in the cycle, so a seed always yields the same inputs.  Only an
operation's ``run`` is timed; ``prepare`` (writing an input file) and
``check`` (validating the outputs) run outside the clock.

A cycle is the smallest list of operations that holds the whole mix
once.  ``cycles(seconds)`` sizes a run's block from ``--seconds`` alone,
so the block depends on nothing measured.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# The two fixed shapes, (d, height, width), and the head count used at each.
SHAPES = {"vits": (384, 14, 14), "r50": (2048, 7, 7)}
HEADS = {"vits": 6, "r50": 8}
CLUSTERS = 4       # mixture components of the synthetic features
K = 4              # pooled vectors for kmeans, slot and sinkhorn-otk
ITERS = 3          # RunConfig's default iteration count
GAMMA = 2.0        # RunConfig's default exponent (conv family)
STOCHASTIC_TOL = 1e-9
GRAD_TOL = 1e-5    # default --tol of `poolkit gradcheck`
GRAD_STEP = 1e-4   # default --h of `poolkit gradcheck`
TRANSPORT_TOL = 1e-8
CLI_SINKHORN_TOL = 1e-9  # SinkhornParams' default, which `poolkit pool` uses

METHODS = ("gap", "max", "gem", "lse", "how", "sinkhorn-otk", "kmeans",
           "slot", "se", "cbam", "vit", "cait", "simpool")
K_METHODS = ("sinkhorn-otk", "kmeans", "slot")
HEAD_METHODS = ("vit", "cait")
ATTNMAP_METHODS = ("simpool", "vit")
# What each method's attention output must satisfy.
ATTENTION = {
    "sinkhorn-otk": "plan",
    "kmeans": "assignment",
    "slot": "stochastic",   # `poolkit pool` runs slot in simplified mode
    "se": "stochastic",
    "cbam": "gate",
    "vit": "stochastic",
    "cait": "stochastic",
    "simpool": "stochastic",
}
CLI_SAMPLE = 6     # one `poolkit pool` request in this many is re-run in-process
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output is wrong: the benchmark run fails."""


class OpFailed(Exception):
    """An operation failed the documented way: a PoolkitError, or a CLI
    exit of 1, 2 or 3 with an ``error:`` line.  It counts as failed."""


class BenchError(Exception):
    """The program failed in an undocumented way (a traceback, another
    exit code): the benchmark run fails."""


@dataclass
class Op:
    shape: Optional[str]              # "vits", "r50", or None when shapeless
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Optional[Callable[[], None]] = None
    # ops with the same shape and group count as one latency sample in the
    # per-shape metrics; None makes the op a group of its own
    group: Optional[int] = None


def synthesize(rng: np.random.Generator, d: int, p: int) -> np.ndarray:
    """Nonnegative Gaussian-cluster features, drawn the way
    ``poolkit tournament`` draws them."""
    centers = rng.normal(scale=3.0, size=(d, CLUSTERS))
    assign = rng.integers(CLUSTERS, size=p)
    x = centers[:, assign] + 0.3 * rng.standard_normal((d, p))
    return x - x.min()


def spread(x: np.ndarray) -> float:
    """Total per-channel variance, the scale `poolkit tournament` uses for epsilon."""
    return float(np.var(x, axis=1).sum())


# --- output checks -----------------------------------------------------------

def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_matrix(name: str, a, shape: tuple) -> np.ndarray:
    a = np.asarray(a)
    expect(a.shape == shape, f"{name}: shape {a.shape}, expected {shape}")
    expect(bool(np.all(np.isfinite(a))), f"{name}: non-finite entries")
    return a


def check_close(name: str, got, want, rtol: float) -> None:
    expect(bool(np.allclose(got, want, rtol=rtol, atol=0.0)),
           f"{name}: differs from the reference by more than rtol {rtol:g}")


def check_sums(name: str, sums, target, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(sums) - target)))
    expect(err <= tol, f"{name}: sums off by {err:.3e} (tolerance {tol:g})")


def check_attention(name: str, kind: str, a: np.ndarray, tol: float) -> None:
    expect(bool(np.all(a >= 0)), f"{name}: negative attention")
    if kind == "stochastic":
        check_sums(f"{name} columns", a.sum(axis=0), 1.0, STOCHASTIC_TOL)
    elif kind == "rows":
        check_sums(f"{name} rows", a.sum(axis=1), 1.0, STOCHASTIC_TOL)
    elif kind == "plan":
        p, k = a.shape
        check_sums(f"{name} row marginals", a.sum(axis=1), 1.0 / p, tol)
        check_sums(f"{name} column marginals", a.sum(axis=0), 1.0 / k, tol)
    elif kind == "assignment":
        expect(bool(np.all(np.count_nonzero(a, axis=1) == 1)),
               f"{name}: a location is not assigned to exactly one cluster")
        sums = a.sum(axis=0)  # an empty cluster has an all-zero column
        check_sums(f"{name} columns", np.where(sums > 0, sums, 1.0), 1.0, STOCHASTIC_TOL)
    elif kind == "gate":
        expect(bool(np.all(a <= 1.0)), f"{name}: gate above 1")


def check_simpool_gradient(pk, x, w, h, params, du, grads, rng) -> None:
    """Compare simpool_backward with a central difference of <du, u> along
    one random unit direction in (W_Q, W_K, X).

    Passes when the symmetric relative error is within GRAD_TOL, above the
    rounding floor of the central difference itself."""
    g_q, g_k, g_x = grads
    d = g_q.shape[0]
    # rank-one weight directions keep the draw O(d) at d = 2048
    v_q, v_k = (np.outer(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(2))
    v_x = rng.standard_normal(g_x.shape)
    norm = np.sqrt((v_q**2).sum() + (v_k**2).sum() + (v_x**2).sum())
    v_q, v_k, v_x = v_q / norm, v_k / norm, v_x / norm
    analytic = float((g_q * v_q).sum() + (g_k * v_k).sum() + (g_x * v_x).sum())

    def loss(t: float) -> float:
        moved = dataclasses.replace(params, w_q=params.w_q + t * v_q, w_k=params.w_k + t * v_k)
        u, _, _ = pk.simpool_forward(pk.FeatureMap(x + t * v_x, w, h), moved)
        return float(du @ u)

    plus, minus = loss(GRAD_STEP), loss(-GRAD_STEP)
    numeric = (plus - minus) / (2.0 * GRAD_STEP)
    err = abs(analytic - numeric)
    floor = 64 * np.finfo(float).eps * (abs(plus) + abs(minus)) / (2.0 * GRAD_STEP)
    expect(err <= GRAD_TOL * max(abs(analytic) + abs(numeric), 1e-12) + floor,
           f"simpool_backward: directional derivative {analytic:.9e} vs central "
           f"difference {numeric:.9e}")


# --- workloads ---------------------------------------------------------------

class Workload:
    """A seed, the poolkit package, and what counts as a failed op.

    Functions are looked up on the package at call time, so that the
    tracer's wrappers are the ones called."""

    setup_reps = 0  # timed repetitions of ``setup`` beyond the import

    def __init__(self, seed: int):
        self.seed = seed
        self.pk = importlib.import_module("poolkit")
        self.failures = (importlib.import_module("poolkit.errors").PoolkitError, OpFailed)

    def setup(self) -> None:
        pass


class Stream(Workload):
    """In-process library inference.  An op pools one fresh map through every
    library entry point, with weights built once per shape in set-up; ops
    alternate between the ViT-S and the ResNet-50 shape."""

    setup_reps = 3

    def setup(self) -> None:
        pk, s = self.pk, self.seed
        self.weights = {
            tag: {
                "slot": pk.SlotWeights.seeded(d, seed=s),
                "se": pk.SeWeights.seeded(d, seed=s),
                "cbam": pk.CbamWeights.seeded(d, seed=s),
                "vit": pk.VitWeights.seeded(d, ITERS, seed=s),
                "simpool": pk.SimPoolParams.seeded(d, gamma=GAMMA, seed=s),
            }
            for tag, (d, _, _) in SHAPES.items()
        }

    @staticmethod
    def cycles(seconds: int) -> int:
        return max(1, round(seconds / 0.9))  # a pair: 0.6 s of ops, 0.9 s with checks

    def cycle(self, c: int) -> list[Op]:
        return [self._op(c, i, tag) for i, tag in enumerate(SHAPES)]

    def _op(self, c: int, i: int, tag: str) -> Op:
        pk, seed = self.pk, self.seed
        d, h, w = SHAPES[tag]
        p = h * w
        rng = np.random.default_rng([seed, c, i])
        x = synthesize(rng, d, p)
        du = rng.standard_normal(d)
        wts, heads = self.weights[tag], HEADS[tag]

        def run():
            fm = pk.FeatureMap(x, w, h)
            out = {
                "gap": pk.gap(fm),
                "max": pk.max_pool(fm),
                "gem": pk.gem(fm, GAMMA),
                "lse": pk.lse(fm, 1.0),
                "how": pk.how(fm),
                "kmeans": pk.kmeans_pool(fm, K, ITERS, seed=seed),
                "slot": pk.slot_pool(fm, K, ITERS, wts["slot"], seed=seed, simplified=False),
                "se": pk.se_pool(fm, wts["se"]),
                "cbam": pk.cbam_pool(fm, wts["cbam"]),
                "vit": pk.vit_cls_pool(fm, wts["vit"], heads, ITERS),
            }
            u, a, cache = pk.simpool_forward(fm, wts["simpool"])
            out["simpool"] = (u, a, pk.simpool_backward(cache, du))
            return out

        def check(out):
            check_close("gap", check_matrix("gap", out["gap"], (d,)), x.mean(axis=1), 1e-12)
            expect(np.array_equal(check_matrix("max", out["max"], (d,)), x.max(axis=1)),
                   "max_pool: differs from the row maximum")
            check_close("gem", check_matrix("gem", out["gem"], (d,)),
                        np.sqrt((x**2).mean(axis=1)), 1e-10)
            top = x.max(axis=1)
            check_close("lse", check_matrix("lse", out["lse"], (d,)),
                        top + np.log(np.exp(x - top[:, None]).mean(axis=1)), 1e-10)
            z = check_matrix("how", out["how"], (d,))
            check_sums("how l2 norm", np.linalg.norm(z), 1.0, 1e-12)
            for name, kind in (("kmeans", "assignment"), ("slot", "rows"), ("se", "stochastic"),
                               ("cbam", "gate"), ("vit", "stochastic")):
                k_out = K if name in ("kmeans", "slot") else 1
                pooled = out[name]
                check_matrix(f"{name} u", pooled.u, (d, k_out))
                a = check_matrix(f"{name} attention", pooled.attention.a, (p, k_out))
                check_attention(name, kind, a, STOCHASTIC_TOL)
            u, a, grads = out["simpool"]
            check_matrix("simpool u", u, (d,))
            check_attention("simpool", "stochastic", check_matrix("simpool a", a, (p,))[:, None],
                            STOCHASTIC_TOL)
            for name, g, shape in zip(("dW_Q", "dW_K", "dX"), grads, ((d, d), (d, d), (d, p))):
                check_matrix(f"simpool_backward {name}", g, shape)
            check_simpool_gradient(pk, x, w, h, wts["simpool"], du, grads, rng)

        return Op(tag, run, check)


class Transport(Workload):
    """Transport problems solved to a stated tolerance: Nystrom-mapped
    transport pooling of feature maps at both shapes, and bare Sinkhorn
    solves on uniform random costs."""

    OTK = [(tag, k) for tag in SHAPES for k in (4, 16, 32)]
    EPSILONS = (0.05, 0.1, 1.0) * 2

    @staticmethod
    def cycles(seconds: int) -> int:
        return max(1, round(seconds / 0.36))  # a cycle: 0.3 s of ops, 0.36 s in all

    def cycle(self, c: int) -> list[Op]:
        ops = [self._otk_op(c, i, tag, k) for i, (tag, k) in enumerate(self.OTK)]
        ops += [self._sinkhorn_op(c, len(self.OTK) + j, eps) for j, eps in enumerate(self.EPSILONS)]
        return ops

    def _otk_op(self, c: int, i: int, tag: str, k: int) -> Op:
        pk = self.pk
        d, h, w = SHAPES[tag]
        rng = np.random.default_rng([self.seed, c, i])
        x = synthesize(rng, d, h * w)
        anchors = x[:, rng.choice(h * w, size=k, replace=False)]
        scale = spread(x)
        eps, sigma = 0.05 * scale, float(np.sqrt(scale))

        def run():
            fm = pk.FeatureMap(x, w, h)
            psi = pk.NystromMap(anchors=anchors, sigma=sigma)
            return pk.otk_pool(fm, anchors, eps, psi=psi,
                               params=pk.SinkhornParams(epsilon=eps, tol=TRANSPORT_TOL))

        def check(pooled):
            check_matrix("otk u", pooled.u, (k, k))
            plan = check_matrix("otk plan", pooled.attention.a, (h * w, k))
            check_attention("otk plan", "plan", plan, TRANSPORT_TOL)

        # A shape's latency sample is its three anchor counts of one cycle:
        # the median of single ops, a mix of k = 4, 16 and 32 with a fifth
        # of them failing, swings by about 15% from seed to seed.
        return Op(tag, run, check, group=c)

    def _sinkhorn_op(self, c: int, i: int, eps: float) -> Op:
        pk = self.pk
        rng = np.random.default_rng([self.seed, c, i])
        p = int(rng.integers(2, 33))
        k = int(rng.integers(2, min(p, 32) + 1))
        cost = rng.uniform(0.0, 10.0, size=(p, k))

        def run():
            return pk.sinkhorn(cost, pk.SinkhornParams(epsilon=eps, tol=TRANSPORT_TOL))

        def check(plan):
            check_attention("sinkhorn plan", "plan", check_matrix("sinkhorn plan", plan, (p, k)),
                            TRANSPORT_TOL)

        return Op(None, run, check)


class CliPool(Workload):
    """One-shot `poolkit pool` requests: all 13 methods at both shapes, each a
    fresh process on a fresh 3-d NPY file; simpool and vit requests are
    followed by `poolkit attnmap --bbox --pgm` on their attention.

    ``in_process`` calls ``poolkit.cli.main(argv)`` instead of starting a
    process; the traced run uses it so that the tracer sees the calls."""

    def __init__(self, seed: int, workdir: Path, root: Path, in_process: bool = False):
        super().__init__(seed)
        self.cli = importlib.import_module("poolkit.cli")
        self.tensor_io = importlib.import_module("poolkit.tensor_io")
        self.attnmap = importlib.import_module("poolkit.attnmap")
        self.root = root
        self.in_process = in_process
        self.paths = {name: workdir / name for name in ("in.npy", "u.npy", "a.npy", "a.pgm")}

    @staticmethod
    def cycles(seconds: int) -> int:
        # a cycle takes about 15 s; at least three keep the per-request
        # percentiles steady
        return max(1, round(seconds / 8))

    def cycle(self, c: int) -> list[Op]:
        requests = [(tag, method) for tag in SHAPES for method in METHODS]
        return [self._op(c, i, tag, method) for i, (tag, method) in enumerate(requests)]

    def _config(self, method: str, tag: str, x: np.ndarray) -> dict:
        """The request's options, as `poolkit pool` flags would set them."""
        cfg = {"method": method, "seed": self.seed}
        if method in K_METHODS:
            cfg["k"] = K
        if method in HEAD_METHODS:
            cfg["heads"] = HEADS[tag]
        if method == "sinkhorn-otk":
            cfg["epsilon"] = max(0.1, 0.05 * spread(x))  # the rule `poolkit tournament` uses
        return cfg

    def _invoke(self, argv: list[str]) -> str:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "poolkit.cli", *argv], cwd=self.root,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code == 0:
            return stdout
        if code in (1, 2, 3) and stderr.startswith("error:") and "Traceback" not in stderr:
            raise OpFailed(stderr.strip())
        raise BenchError(f"poolkit {argv[0]} exited {code}:\n{stderr[-4000:]}")

    def _op(self, c: int, i: int, tag: str, method: str) -> Op:
        d, h, w = SHAPES[tag]
        p = h * w
        x = synthesize(np.random.default_rng([self.seed, c, i]), d, p)
        cfg = self._config(method, tag, x)
        paths = {name: str(path) for name, path in self.paths.items()}
        argv = ["pool", "--input", paths["in.npy"], "--out", paths["u.npy"]]
        for key, value in cfg.items():
            argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        if method in ATTENTION:
            argv += ["--attn-out", paths["a.npy"]]
        map_argv = ["attnmap", "--attn", paths["a.npy"], "--width", str(w), "--height", str(h),
                    "--bbox", "--pgm", paths["a.pgm"]]
        k_out = K if method in K_METHODS else 1
        sampled = (c * 2 * len(METHODS) + i + self.seed) % CLI_SAMPLE == 0

        def prepare():
            for path in self.paths.values():
                path.unlink(missing_ok=True)
            np.save(self.paths["in.npy"], x.reshape(d, h, w))

        def run():
            self._invoke(argv)
            return self._invoke(map_argv) if method in ATTNMAP_METHODS else None

        def check(map_stdout):
            u = check_matrix(f"{method} u", np.load(paths["u.npy"]), (d, k_out))
            if method == "gap":
                check_close("gap", u[:, 0], x.mean(axis=1), 1e-12)
            elif method == "max":
                expect(np.array_equal(u[:, 0], x.max(axis=1)), "max: differs from the row maximum")
            a = None
            if method in ATTENTION:
                a = check_matrix(f"{method} attention", np.load(paths["a.npy"]), (p, k_out))
                check_attention(method, ATTENTION[method], a, CLI_SINKHORN_TOL)
            box = None
            if method in ATTNMAP_METHODS:
                box = self._check_attnmap(map_stdout, w, h)
            if sampled:
                self._check_in_process(cfg, paths["in.npy"], u, a, box, w, h)

        return Op(tag, run, check, prepare)

    def _check_attnmap(self, stdout: str, w: int, h: int) -> tuple[int, ...]:
        fields = stdout.split()
        expect(len(fields) == 4 and all(f.isdigit() for f in fields),
               f"attnmap --bbox printed {stdout!r}")
        x0, y0, x1, y1 = box = tuple(int(f) for f in fields)
        expect(x0 <= x1 < w and y0 <= y1 < h, f"attnmap: box {box} outside the {w}x{h} grid")
        pgm = self.paths["a.pgm"].read_bytes()
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        expect(pgm.startswith(header) and len(pgm) == len(header) + w * h,
               "attnmap: malformed PGM output")
        return box

    def _check_in_process(self, cfg, in_path, u, a, box, w, h) -> None:
        """The request's outputs must be bit-identical to poolkit.cli.run_method
        on the same input and config."""
        pooled = self.cli.run_method(self.tensor_io.config_from_dict(dict(cfg)),
                                     self.pk.load_feature_map(in_path))
        expect(pooled.u.shape == u.shape and pooled.u.tobytes() == u.tobytes(),
               f"{cfg['method']}: CLI output differs from in-process run_method")
        if a is not None:
            expect(pooled.attention.a.shape == a.shape and pooled.attention.a.tobytes() == a.tobytes(),
                   f"{cfg['method']}: CLI attention differs from in-process run_method")
        if box is not None:
            grid = self.attnmap.reshape_attention(pooled.attention.a, w, h)
            ref = self.attnmap.largest_component_bbox(self.attnmap.mass_threshold(grid, 0.6))
            expect(box == (ref.x_min, ref.y_min, ref.x_max, ref.y_max),
                   f"{cfg['method']}: attnmap box {box} differs from the in-process box")
