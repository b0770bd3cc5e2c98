"""Hypothesis inputs on the numerical edges of the feature domain, and the
rounding bound that outputs computed in two orders must meet on them."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

SCALES = st.sampled_from([1.0, 1e6])
COLUMN_EDGES = st.sampled_from(["drawn", "identical", "constant"])


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
