"""Hypothesis inputs on the numerical edges of the feature domain, and the
rounding bound that outputs computed in two orders must meet on them, and
40-digit ``decimal`` references of the two means."""

from decimal import Decimal, localcontext

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

EPS = np.finfo(np.float64).eps
SCALES = st.sampled_from([1.0, 1e6])
COLUMN_EDGES = st.sampled_from(["drawn", "identical", "constant"])

# SimPool with a small exponent, or with one anywhere up to its contract's
# 100: there v**gamma underflows near the clamp floor, which the values reach
# at their minimum, unless the mean factors it.
SIMPOOL_SETTINGS = st.one_of(
    st.fixed_dictionaries({"gamma": st.sampled_from([1.0, 2.0, 3.0])}),
    st.fixed_dictionaries({"gamma": st.one_of(st.just(100.0), st.floats(1.0, 100.0))}))

# Features whose large average saturates SimPool's attention to one column:
# d = 8, p = 12, uniform on [0, 1e4].
SIMPOOL_SATURATED = np.random.default_rng(0).uniform(0.0, 1e4, size=(8, 12))


def feature_matrices(rows=st.integers(2, 8)):
    """d x p matrices, p from 1 to 9, with entries in [-4, 4]."""
    return st.tuples(rows, st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)))


def shape_columns(x, columns):
    """The drawn matrix, p copies of its first column, or each column held
    at its first entry (a zero-variance column, LayerNorm's edge)."""
    d, p = x.shape
    return {"drawn": x, "identical": np.repeat(x[:, :1], p, axis=1),
            "constant": np.repeat(x[:1, :], d, axis=0)}[columns]


def assert_within_rounding(got, want, majorant, kappa):
    """|got - want| <= 1e-12 * kappa * max(majorant) + tiny, elementwise.

    A sum is rounded by about 1e-16 of its absolute terms, not of its value,
    hence the majorant: the same computation on absolute values.  Each form
    rounds a logit that way, and the softmax turns that absolute error into
    a relative one downstream, hence kappa: the logits' majorant, at least 1.
    Below the smallest normal float (tiny) rounding is absolute, not
    relative, since subnormals carry fewer digits."""
    bound = 1e-12 * kappa * np.max(majorant) + np.finfo(np.float64).tiny
    assert np.max(np.abs(got - want)) <= bound, (np.max(np.abs(got - want)), bound)


ORACLE_DIGITS = 40


def _oracle_weights(a):
    """Each column of a in ``decimal``, exactly, divided by its sum where that
    sum is 1 to within the rounding of its p weights: such a column is a mean's
    weights, whose float sum only misses 1 by that rounding."""
    cols = []
    for col in a.T:
        w = [Decimal(x) for x in col]
        s = sum(w)
        cols.append([x / s for x in w] if abs(s - 1) <= len(w) * Decimal(EPS) else w)
    return cols


def oracle_power_mean(v, a, gamma):
    """(d, k) ``(v**gamma @ a) ** (1/gamma)`` (``exp(ln v @ a)`` at gamma = 0)
    in ``decimal`` at ``ORACLE_DIGITS`` digits, from the exact values of v > 0
    and a (see ``_oracle_weights``), rounded once to float64."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        g, cols = Decimal(gamma), _oracle_weights(a)
        out = np.empty((v.shape[0], a.shape[1]))
        for i, row in enumerate(v):
            logs = [Decimal(x).ln() for x in row]
            for j, col in enumerate(cols):
                if gamma == 0:
                    out[i, j] = float(sum(w * ln for w, ln in zip(col, logs)).exp())
                else:
                    inner = sum(w * (g * ln).exp() for w, ln in zip(col, logs))
                    out[i, j] = float((inner.ln() / g).exp())
    return out


def oracle_lse(v, a, r):
    """(d, k) ``ln(exp(r v) @ a) / r`` in ``decimal`` at ``ORACLE_DIGITS``
    digits, from the exact values of v and a (see ``_oracle_weights``),
    rounded once to float64."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_DIGITS
        rd, cols = Decimal(r), _oracle_weights(a)
        out = np.empty((v.shape[0], a.shape[1]))
        for i, row in enumerate(v):
            terms = [(rd * Decimal(x)).exp() for x in row]
            for j, col in enumerate(cols):
                out[i, j] = float(sum(w * t for w, t in zip(col, terms)).ln() / rd)
    return out
