"""Target model, discretization, and stage-cost integrals.

The continuous-time target is the linear SDE

    dx(t) = A x(t) dt + B dw(t),      cov{w(s), w(r)} = W min(s, r)

with linear position measurements z = C x + v. Everything downstream
(filtering, scheduling, simulation) works on the exact discretization of this
model over durations that are integer multiples of the sensor period ``dt_s``:

    Ad(d) = exp(A d)
    Wd(d) = int_0^d Ad(s) B W B' Ad(s)' ds

and on the Gram integrals that turn the running estimation cost
int tr(P(t)) dt over one epoch into the closed form tr(P @ M(d)) + c(d):

    M(d) = int_0^d Ad(s)' Ad(s) ds
    c(d) = int_0^d tr(Wd(s)) ds

Both the pair and the Grams are read off block matrix exponentials (Van Loan
1978), computed by scaling and squaring with the degree-13 Padé approximant
(Higham 2005, "The scaling and squaring method for the matrix exponential
revisited"), so no quadrature enters the filter or the cost. tr(P @ M(d)) +
c(d) is the one evaluation of the epoch cost: the schedulers and the run
metrics both reach it through `exact.window_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidModelError

# Symmetry / PSD tolerances used when validating covariance-like inputs.
SYM_RTOL = 1e-12
PSD_RTOL = 1e-10

# The gufuncs (and float64 signatures) that numpy.linalg's public functions
# call for float64 input; a numpy without them fails here, at import.
_GUFUNCS = {
    "eigh": (_umath_linalg.eigh_lo, "d->dd"),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "d->d"),
    "cholesky": (_umath_linalg.cholesky_lo, "d->d"),
    "inv": (_umath_linalg.inv, "d->d"),
}


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _call_gufunc(gufunc, signature: str, a):
    return gufunc(a, signature=signature)


def _lapack(name: str, a: np.ndarray):
    """`numpy.linalg.<name>(a)` for float64 `a`, one matrix or a stack.

    `name` is "eigh", "eigvalsh", "cholesky" or "inv". The public functions
    spend more on argument checks and their error-state context than on a
    small matrix, so this calls their gufunc directly, under their error state
    except that a failure signal raises FloatingPointError. The gufuncs raise
    that signal exactly when LAPACK fails; only then is the call handed to the
    public function, which raises its own LinAlgError or returns the same
    result. A non-finite input gives the same non-finite result either way.
    `eigh` returns a plain `(eigenvalues, eigenvectors)` tuple.
    """
    gufunc, signature = _GUFUNCS[name]
    try:
        return _call_gufunc(gufunc, signature, a)
    except FloatingPointError:
        return getattr(np.linalg, name)(a)


# Padé-13 is (V - U)^-1 (V + U), U = A (A^6 p_0 + p_1), V = A^6 p_2 + p_3; row i
# is p_i on (I, A^2, A^4, A^6), Higham's b_k / b_0 (so exp(0) is I exactly).
# theta_13 is the largest 1-norm needing no scaling (Higham 2005, Table 2.3).
_PADE13 = np.array([
    [0, 40840800, 16380, 1],
    [32382376266240000, 1187353796428800, 10559470521600, 33522128640],
    [0, 1323241920, 960960, 182],
    [64764752532480000, 7771770303897600, 129060195264000, 670442572800],
]) / 64764752532480000
_THETA13 = 5.371920351148152


@np.errstate(over="ignore", invalid="ignore")
def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square float64 matrix: Higham 2005, Algorithm 2.3 at m = 13 only.

    The approximant of `a / 2**s` (1-norm <= theta_13), squared s times; a
    non-finite 1-norm gives s = 0 and a non-finite result, not an error.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if _THETA13 < norm < np.inf else 0
    a = a / 2.0 ** s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    p = (_PADE13 @ np.stack((np.eye(len(a)), a2, a4, a6)).reshape(4, -1)).reshape(4, *a.shape)
    u = a @ (a6 @ p[0] + p[1])
    v = a6 @ p[2] + p[3]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise InvalidModelError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    return arr


def clamp_psd(mat: np.ndarray, name: str, error=InvalidModelError, scale=None,
              symmetrized=False) -> np.ndarray:
    """Symmetrize `mat` and clamp its round-off negative eigenvalues to zero.

    `mat` is one matrix or a stack `(..., n, n)`, clamped member by member.
    Raises `error` when an eigenvalue lies below -1e-10 * scale, which is real
    negativity rather than round-off, quoting the first such member's least
    eigenvalue; `scale` defaults to each member's Frobenius norm, computed only
    when an eigenvalue is negative. A `symmetrized` mat, the result of
    0.5 * (a + a.mT), skips that step, whose second pass would change no bit.
    """
    sym = mat if symmetrized else 0.5 * (mat + mat.mT)
    eigvals, eigvecs = _lapack("eigh", sym)
    # One matrix is tested on a numpy scalar, a stack with one array pass.
    if not (eigvals[0] < 0.0 if eigvals.ndim == 1 else (eigvals[..., 0] < 0.0).any()):
        return sym
    low = eigvals[..., 0]
    if scale is None:
        # norm(sym, "fro") of one member, from its entries over their largest
        # magnitude, whose squares cannot overflow.
        flat = sym.reshape(*sym.shape[:-2], -1)
        big = np.max(np.abs(flat), axis=-1, keepdims=True)
        unit = flat / np.where(np.isfinite(big) & (big > 0.0), big, 1.0)
        scale = big[..., 0] * np.sqrt(np.vecdot(unit, unit))
    bad = low < -PSD_RTOL * np.maximum(scale, 1e-300)
    if bad.any():
        first = low.flat[np.argmax(bad)]
        raise error(f"{name} has eigenvalue {first:.3e} below the PSD tolerance")
    clipped = (eigvecs * np.clip(eigvals, 0.0, None)[..., None, :]) @ eigvecs.mT
    # Halved before adding, so a finite member stays finite up to the largest float.
    return np.where((low < 0.0)[..., None, None], 0.5 * clipped + 0.5 * clipped.mT, sym)


def check_symmetric_psd(mat: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetry (1e-12 relative) and PSD-ness (eigenvalues >= -1e-10 * ||.||_F).

    Returns the symmetrized matrix with tiny negative eigenvalues clamped to zero.
    """
    mat = _as_matrix(mat, name)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidModelError(f"{name} must be square, got shape {mat.shape}")
    scale = np.linalg.norm(mat, "fro")
    if scale > 0 and np.linalg.norm(mat - mat.T, "fro") > SYM_RTOL * scale * 10:
        raise InvalidModelError(f"{name} is not symmetric within tolerance")
    return clamp_psd(mat, name, scale=scale)


@dataclass(frozen=True)
class ContinuousModel:
    """Linear SDE target model with measurement map and initial belief.

    Attributes:
        A: drift matrix (n_x, n_x).
        B: noise input matrix (n_x, n_w).
        W: Wiener covariance rate (n_w, n_w), symmetric PSD.
        C: measurement map (n_z, n_x); (A, C) must be observable.
        x0: initial mean (n_x,).
        P0: initial covariance (n_x, n_x), symmetric PSD.
        dt_s: minimum sensor sampling period in seconds.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    C: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    dt_s: float

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        W = check_symmetric_psd(self.W, "W")
        P0 = check_symmetric_psd(self.P0, "P0")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(x0)):
            raise InvalidModelError("x0 contains non-finite entries")
        n = A.shape[0]
        if A.shape != (n, n):
            raise InvalidModelError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise InvalidModelError(f"B has {B.shape[0]} rows, expected {n}")
        if W.shape[0] != B.shape[1]:
            raise InvalidModelError(
                f"W is {W.shape[0]}x{W.shape[1]} but B has {B.shape[1]} columns"
            )
        if C.shape[1] != n:
            raise InvalidModelError(f"C has {C.shape[1]} columns, expected {n}")
        if x0.shape[0] != n:
            raise InvalidModelError(f"x0 has length {x0.shape[0]}, expected {n}")
        if P0.shape[0] != n:
            raise InvalidModelError(f"P0 is {P0.shape}, expected ({n}, {n})")
        if not (np.isfinite(self.dt_s) and self.dt_s > 0):
            raise InvalidModelError("dt_s must be a positive finite number")
        # Observability: rank of [C; CA; ...; CA^(n-1)] via singular values.
        blocks = [C]
        for _ in range(n - 1):
            blocks.append(blocks[-1] @ A)
        sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
        if sv.size == 0 or np.sum(sv > 1e-9 * sv[0]) < n:
            raise InvalidModelError("(A, C) is not observable")
        for name, val in (("A", A), ("B", B), ("W", W), ("C", C), ("x0", x0), ("P0", P0)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_z(self) -> int:
        return self.C.shape[0]

    @property
    def n_w(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class PerceptionMethod:
    """One perception configuration: latency, accuracy, CPU fraction, penalty.

    Attributes:
        id: 1-based method identifier; in a method list, method rho is methods[rho - 1].
        steps: latency as a positive count of sensor periods.
        R: nominal measurement covariance (n_z, n_z), symmetric PSD.
        cpu: fraction of the latency the computing unit is busy, in (0, 1].
        penalty: scheduling penalty r >= 0 charged once per use.
    """

    id: int
    steps: int
    R: np.ndarray
    cpu: float
    penalty: float

    def __post_init__(self):
        if int(self.id) < 1:
            raise InvalidModelError("method id must be >= 1")
        if int(self.steps) < 1:
            raise InvalidModelError("method steps must be >= 1")
        if not (0.0 < self.cpu <= 1.0):
            raise InvalidModelError("method cpu must lie in (0, 1]")
        if self.penalty < 0.0:
            raise InvalidModelError("method penalty must be >= 0")
        R = check_symmetric_psd(self.R, f"R (method {self.id})")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "steps", int(self.steps))

    def latency(self, dt_s: float) -> float:
        return self.steps * dt_s


def validate_methods(methods) -> list:
    """Check that method ids are 1..D in list order, so method rho is methods[rho - 1]."""
    methods = list(methods)
    if not methods:
        raise InvalidModelError("at least one perception method is required")
    for pos, m in enumerate(methods, start=1):
        if m.id != pos:
            raise InvalidModelError(
                f"method ids must be consecutive 1..D in order; position {pos} has id {m.id}"
            )
    return methods


def discretize(model: ContinuousModel, duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Ad, Wd) for one duration via the augmented-block matrix exponential.

    The pair is read off exp([[-A, BWB'], [0, A']] * d): the lower-right block
    transposed is Ad, and Ad times the upper-right block is Wd. This keeps the
    covariance path free of quadrature error.
    """
    if not np.isfinite(duration) or duration < 0:
        raise InvalidModelError(f"duration must be finite and >= 0, got {duration}")
    n = model.n_x
    if duration == 0.0:
        return np.eye(n), np.zeros((n, n))
    noise = model.B @ model.W @ model.B.T
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -model.A
    block[:n, n:] = noise
    block[n:, n:] = model.A.T
    big = _expm(block * duration)
    Ad = big[n:, n:].T
    Wd = Ad @ big[:n, n:]
    return Ad, 0.5 * (Wd + Wd.T)


def cost_gram(model: ContinuousModel, duration: float) -> tuple[np.ndarray, float]:
    """Gram integrals (M, c) for the per-epoch estimation cost.

    M = int_0^d Ad(s)'Ad(s) ds and c = int_0^d tr(Wd(s)) ds, read off one block
    exponential E = exp([[-A', I, 0], [0, -A', I], [0, 0, A]] * d) (Van Loan
    1978, Thm. 1). With Ad = E[2n:, 2n:], M = Ad' E[n:2n, 2n:] and
    N = Ad' E[:n, 2n:] = int_0^d int_0^s Ad(r)'Ad(r) dr ds; since
    tr Wd(s) = tr(B W B' M(s)), c = tr(B W B' N).
    """
    if not np.isfinite(duration) or duration < 0:
        raise InvalidModelError(f"duration must be finite and >= 0, got {duration}")
    n = model.n_x
    if duration == 0.0:
        return np.zeros((n, n)), 0.0
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = block[n:2 * n, n:2 * n] = -model.A.T
    block[:n, n:2 * n] = block[n:2 * n, 2 * n:] = np.eye(n)
    block[2 * n:, 2 * n:] = model.A
    big = _expm(block * duration)
    AdT = big[2 * n:, 2 * n:].T
    M = AdT @ big[n:2 * n, 2 * n:]
    N = AdT @ big[:n, 2 * n:]
    c = float((model.B @ model.W @ model.B.T * N).sum())
    return 0.5 * (M + M.T), c


@dataclass
class DiscretizedDynamics:
    """Read-only tables of (Ad, Wd, M, c) on the dt_s grid.

    Tables are precomputed for j = 0..max_steps sensor periods; `pair` serves
    `predict` for any duration, discretizing a non-grid one on each call.
    Instances are safe to share across workers once built.
    """

    model: ContinuousModel
    max_steps: int
    _Ad: np.ndarray = field(init=False, repr=False)
    _Wd: np.ndarray = field(init=False, repr=False)
    _M: np.ndarray = field(init=False, repr=False)
    _c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.max_steps < 1:
            raise InvalidModelError("max_steps must be >= 1")
        n = self.model.n_x
        count = self.max_steps + 1
        self._Ad = np.zeros((count, n, n))
        self._Wd = np.zeros((count, n, n))
        self._M = np.zeros((count, n, n))
        self._c = np.zeros(count)
        self._Ad[0] = np.eye(n)
        for j in range(1, count):
            d = j * self.model.dt_s
            self._Ad[j], self._Wd[j] = discretize(self.model, d)
            self._M[j], self._c[j] = cost_gram(self.model, d)
        for arr in (self._Ad, self._Wd, self._M, self._c):
            arr.setflags(write=False)

    @property
    def dt_s(self) -> float:
        return self.model.dt_s

    def step_pair(self, steps: int | slice) -> tuple[np.ndarray, np.ndarray]:
        """(Ad, Wd) for an integer number of sensor periods; a slice or int array gives stacks."""
        return self._Ad[steps], self._Wd[steps]

    def step_gram(self, steps):
        """(M, c) for an integer number of sensor periods; an integer array gives stacks."""
        if isinstance(steps, np.ndarray):
            return self._M[steps], self._c[steps]
        return self._M[steps], float(self._c[steps])

    def pair(self, duration: float) -> tuple[np.ndarray, np.ndarray]:
        """(Ad, Wd) for an arbitrary duration; grid multiples read the tables."""
        steps = duration / self.model.dt_s
        rounded = int(round(steps))
        if abs(steps - rounded) < 1e-9 and 0 <= rounded <= self.max_steps:
            return self.step_pair(rounded)
        return discretize(self.model, duration)


def build_dynamics(model: ContinuousModel, methods) -> DiscretizedDynamics:
    """Dynamics tables covering every method latency; checks the id rule first."""
    return DiscretizedDynamics(model, max(m.steps for m in validate_methods(methods)))
