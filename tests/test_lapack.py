"""`dynamics._lapack` against the public `numpy.linalg` functions it stands for.

Every `eigh`, `eigvalsh`, `cholesky` and `inv` in latsched goes through
`_lapack`, which calls numpy's gufuncs directly. On one matrix or a stack,
SPD, indefinite, singular, huge or holding NaN or inf, each result must equal
the public function's bit for bit, each failure must raise the same
LinAlgError message, and no call may warn.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from latsched.dynamics import _lapack

NAMES = ("eigh", "eigvalsh", "cholesky", "inv")


def outcome(func, a):
    """("ok", bytes of each result array) or ("raise", message), and any warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = func(a)
        except np.linalg.LinAlgError as exc:
            return ("raise", str(exc)), caught
    parts = tuple(out) if isinstance(out, tuple) else (out,)
    return ("ok", [(p.shape, p.dtype.str, p.tobytes()) for p in parts]), caught


def matrix(rng, n: int, kind: str) -> np.ndarray:
    G = rng.standard_normal((n, n))
    if kind == "spd":
        return G @ G.T + 1e-3 * np.eye(n)
    if kind == "indefinite":
        return G + G.T
    if kind == "low-rank":
        H = G[:, : rng.integers(0, n)]
        return H @ H.T
    if kind == "repeated-row":
        # Integer entries and a repeated row: exactly singular, so inv fails.
        M = np.round(4 * G)
        if n == 1:
            return 0.0 * M
        i, j = rng.choice(n, 2, replace=False)
        M[i] = M[j]
        return M
    if kind == "huge":
        return 1e160 * (G @ G.T + np.eye(n))
    # "non-finite": NaN, inf or -inf at one or more entries of an SPD matrix.
    M = G @ G.T + np.eye(n)
    bad = rng.random((n, n)) < 0.3
    bad[rng.integers(0, n), rng.integers(0, n)] = True
    M[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    return M


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    stack=st.sampled_from([None, 1, 3]),
    kind=st.sampled_from(["spd", "indefinite", "low-rank", "repeated-row", "huge",
                          "non-finite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lapack_matches_public_linalg(n, stack, kind, seed):
    rng = np.random.default_rng(seed)
    if stack is None:
        a = matrix(rng, n, kind)
    else:
        # The first member is of the drawn kind, the rest SPD or of that kind.
        a = np.array([matrix(rng, n, kind if i == 0 or rng.random() < 0.5 else "spd")
                      for i in range(stack)])
    for name in NAMES:
        got, caught = outcome(lambda x: _lapack(name, x), a)
        want, _ = outcome(getattr(np.linalg, name), a)
        assert got == want, name
        assert not caught, (name, [str(w.message) for w in caught])


def test_every_kind_of_outcome_is_reached():
    # The cases above include raising and non-finite results, not only clean ones.
    rng = np.random.default_rng(0)
    assert outcome(np.linalg.cholesky, matrix(rng, 3, "indefinite"))[0][0] == "raise"
    assert outcome(np.linalg.inv, matrix(rng, 3, "repeated-row"))[0] == (
        "raise", "Singular matrix")
    w = np.linalg.eigvalsh(matrix(rng, 3, "non-finite"))
    assert not np.all(np.isfinite(w))
    assert outcome(lambda x: _lapack("inv", x), np.zeros((2, 2)))[0] == (
        "raise", "Singular matrix")
