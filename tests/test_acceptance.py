"""Acceptance suite: the twelve release criteria.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``) and enforces both the numeric tolerance and the time budget.
"""

import contextlib
import subprocess
import sys
import time

import numpy as np
import pytest

from poolkit.cli import _synthesize_features, run_method
from poolkit.cluster_poolers import SinkhornParams, kmeans_distortion, kmeans_spec, sinkhorn
from poolkit.framework import FeatureMap, run_pooling
from poolkit.matcore import col_softmax
from poolkit.meanfam import weighted_generalized_mean
from poolkit.simple_poolers import gap
from poolkit.simpool import SimPoolParams, simpool_forward, simpool_gradcheck
from poolkit.tensor_io import config_from_dict, read_npy, write_npy
from poolkit.transformer_poolers import VitWeights
from poolkit.attnmap import AttnGrid, write_pgm

from test_simple_poolers import reference_pools
from test_transformer_poolers import block_diagonal_query, split_heads


def lloyd_step(x, u):
    """One engine k-means iteration from centroids u: (new centroids, assignment)."""
    out = run_pooling(kmeans_spec(1, u), FeatureMap.from_array(x))
    return out.u, out.attention.a


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.2f}s >= {budget_seconds}s"
    )


def test_criterion_01_mean_family_correspondence():
    with criterion(1, "power-mean family vs closed forms", 1.0):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            v = rng.uniform(0.01, 10.0, size=(1, 6))
            p = v.shape[1]
            a = np.full((p, 1), 1.0 / p)
            closed = {
                2.0: np.sqrt(np.mean(v**2)),
                1.0: np.mean(v),
                0.0: np.exp(np.mean(np.log(v))),
                -1.0: 1.0 / np.mean(1.0 / v),
            }
            for gamma, expected in closed.items():
                got = weighted_generalized_mean(v, a, gamma)[0, 0]
                assert abs(got - expected) <= 1e-10
            big = weighted_generalized_mean(v, a, 200.0)[0, 0]
            vmax = v.max()
            assert abs(big - vmax) / vmax < 0.01


def test_criterion_02_average_is_distortion_optimal():
    with criterion(2, "column mean minimizes squared distortion", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            x = rng.normal(size=(4, 10))
            u = gap(FeatureMap.from_array(x))[:, None]
            j_star = kmeans_distortion(x, u)
            delta = rng.normal(size=(4, 1))
            delta /= np.linalg.norm(delta)
            assert j_star < kmeans_distortion(x, u + 1e-3 * delta)


def test_criterion_03_sinkhorn_marginals():
    with criterion(3, "transport-plan marginal residuals", 2.0):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for eps in (0.05, 0.1, 1.0):
                for _ in range(10):
                    p = int(rng.integers(2, 33))
                    k = int(rng.integers(2, min(p, 32) + 1))
                    cost = rng.uniform(0.0, 10.0, size=(p, k))
                    plan = sinkhorn(cost, SinkhornParams(epsilon=eps, tol=1e-8))
                    assert np.max(np.abs(plan.sum(axis=1) - 1.0 / p)) <= 1e-8
                    assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= 1e-8


def test_criterion_04_kmeans_descent_and_matrix_form():
    with criterion(4, "k-means descent / matrix-loop agreement", 2.0):
        rng = np.random.default_rng(103)
        for trial in range(100):
            x = rng.normal(size=(3, 24))
            idx = rng.choice(24, size=3, replace=False)
            u = x[:, idx].copy()
            prev = kmeans_distortion(x, u)
            for _ in range(20):
                u, _ = lloyd_step(x, u)
                cur = kmeans_distortion(x, u)
                assert cur <= prev + 1e-12
                prev = cur
            # matrix form vs per-point loop on the final state
            u_mat, _ = lloyd_step(x, u)
            sums = np.zeros_like(u)
            counts = np.zeros(3)
            for j in range(24):
                c = int(np.argmin([np.sum((x[:, j] - u[:, q]) ** 2) for q in range(3)]))
                sums[:, c] += x[:, j]
                counts[c] += 1
            u_loop = np.where(counts > 0, sums / np.maximum(counts, 1), u)
            assert np.max(np.abs(u_mat - u_loop)) <= 1e-12


def test_criterion_05_multi_head_block_diagonal():
    with criterion(5, "per-head vs block-diagonal attention", 1.0):
        rng = np.random.default_rng(104)
        d = 8
        for trial in range(100):
            x = rng.normal(size=(d, 10))
            w = VitWeights.seeded(d, iters=1, seed=trial)
            iw = w.iters[0]
            keys = iw.w_k @ x
            values = iw.w_v @ x
            q = iw.w_q @ w.u0
            for m in (1, 2, 4):
                step = d // m
                # per-head path
                logits_heads = np.stack(
                    [ki.T @ qi[:, 0] for ki, qi in zip(
                        split_heads(keys, m), split_heads(q[:, None], m))],
                    axis=1,
                )
                # block-diagonal path: one product with the (d, m) matrix
                logits_block = keys.T @ block_diagonal_query(q, m)
                assert np.max(np.abs(logits_heads - logits_block)) <= 1e-12
                a = col_softmax(logits_block, np.sqrt(step))
                z_heads = np.concatenate(
                    [vi @ a[:, i] for i, vi in enumerate(split_heads(values, m))]
                )
                z_block = np.concatenate(
                    [split_heads(values, m)[i] @ logits_to_attn
                     for i, logits_to_attn in enumerate(a.T[..., None])]
                )[:, 0]
                assert np.max(np.abs(z_heads - z_block)) <= 1e-12


def test_criterion_06_channel_gate_decomposition():
    with criterion(6, "mean of gated channels equals dot-product form", 1.0):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            x = rng.normal(size=(d, 6))
            q = rng.uniform(0.0, 1.0, size=d)
            lhs = (q[:, None] * x).mean(axis=0)
            rhs = x.T @ q / d
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_07_analytic_gradients():
    with criterion(7, "analytic vs central-difference gradients", 5.0):
        d, p = 8, 12
        for gamma in (1.25, 2.0):
            for trial in range(10):
                rng = np.random.default_rng(trial)
                fm = FeatureMap.from_array(rng.normal(size=(d, p)))
                du = rng.normal(size=d)
                params = SimPoolParams.seeded(d, gamma=gamma, seed=1000 + trial)
                for report in simpool_gradcheck(fm, params, du, 1e-4):
                    assert report.max_rel_error <= 1e-5, report


def test_criterion_08_hand_trace():
    with criterion(8, "worked 2x2 forward example", 1.0):
        fm = FeatureMap.from_array(np.array([[1.0, 0.0], [0.0, 1.0]]))
        params = SimPoolParams(w_q=np.eye(2), w_k=np.eye(2), gamma=1.0)
        u, a, _ = simpool_forward(fm, params)
        assert np.max(np.abs(a - 0.5)) <= 1e-4
        assert np.max(np.abs(u - 1.0)) <= 1e-4


def test_criterion_09_engine_equals_direct():
    with criterion(9, "engine poolers match NumPy reference formulas", 1.0):
        rng = np.random.default_rng(106)
        for _ in range(100):
            fm = FeatureMap(rng.uniform(0.1, 3.0, size=(4, 12)), width=4, height=3)
            refs = reference_pools(fm)
            assert sorted(refs) == ["cbam", "gap", "gem", "how", "lse", "max", "se"]
            for pooler, reference, _ in refs.values():
                assert np.max(np.abs(pooler(fm) - reference)) <= 1e-12


def test_criterion_10_attention_stochasticity():
    with criterion(10, "softmax attentions are column-stochastic", 2.0):
        softmax_methods = ("slot", "vit", "cait", "simpool")
        for trial in range(5):
            fm = _synthesize_features(16, 64, 4, seed=trial)
            for method in softmax_methods:
                cfg = config_from_dict({"method": method, "seed": trial, "k": 3})
                pooled = run_method(cfg, fm)
                a = pooled.attention.a
                assert pooled.attention.stochastic_cols
                assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-9


def test_criterion_11_io_round_trips(tmp_path):
    with criterion(11, "array and image file formats", 1.0):
        rng = np.random.default_rng(107)
        arr = rng.normal(size=(5, 7))
        path = tmp_path / "round.npy"
        write_npy(arr, path)
        back, _ = read_npy(path)
        assert back.tobytes() == arr.tobytes()

        pgm = tmp_path / "g.pgm"
        write_pgm(AttnGrid(np.array([[0.0, 1.0], [2.0, 3.0]]), 2, 2), pgm)
        assert pgm.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])


def test_criterion_12_cli_end_to_end(tmp_path):
    with criterion(12, "command-line run at full size", 10.0):
        rng = np.random.default_rng(108)
        x = rng.normal(size=(384, 196))
        feat = tmp_path / "x.npy"
        write_npy(x, feat)
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"u_{tag}.npy"
            attn = tmp_path / f"a_{tag}.npy"
            cmd = [
                sys.executable, "-m", "poolkit.cli", "pool",
                "--input", str(feat), "--method", "simpool",
                "--width", "14", "--height", "14", "--seed", "0",
                "--out", str(out), "--attn-out", str(attn),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 1.0, f"pool run took {elapsed:.2f}s"
            a, _ = read_npy(attn)
            assert abs(a.sum() - 1.0) <= 1e-9
            outputs.append((out.read_bytes(), attn.read_bytes()))
        assert outputs[0] == outputs[1]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s", "-q"]))
