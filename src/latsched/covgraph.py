"""Quantized covariance space and its per-method transition graph.

The filter covariance recursion maps each representative matrix to one
successor per method. Expanding that map until it closes (every successor is
itself within the admission tolerance of some representative) produces a
finite directed graph over which scheduling becomes a staged shortest-path
problem. Quantization is nearest-neighbor in the Frobenius norm; the achieved
coarseness (max distance from any mapped covariance to its assigned
representative) is measured a posteriori and reported on the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .dynamics import PSD_RTOL, DiscretizedDynamics, _lapack
from .config import _matrix, _number, _require
from .errors import ConfigError, GraphExpansionError
from .estimator import riccati_step

FORMAT_VERSION = 1
# Nodes stepped per kernel call in expand_graph.
_CHUNK = 2048
# Scores per block in _nearest_rows: 320 KB of float64, so a block stays in
# L2 from the product that writes it to the passes that read it. Of 2^15 to
# 2^18 entries this was about the fastest on the 10,000 x 5,000 occlusion
# match, 2 MB blocks (2^18) the slowest.
_BLOCK = 5 << 13
# Up to this many rep entries (Q * n * n), `nearest` scans every node: below
# it the scan takes fewer numpy calls than scoring, and is faster.
_SCAN_ENTRIES = 4096
# The constant column of the lifted point [x, 1] that `nearest` scores.
_ONE = np.ones(1)


def sample_region(n: int, b0: float, count: int, seed) -> np.ndarray:
    """Random symmetric PSD matrices with Frobenius norm uniform on (0, b0].

    Eigenvalues are drawn uniform on (0, 1), rotated by a random orthogonal
    basis (QR of a Gaussian matrix), and the result rescaled to the target
    norm. Deterministic given the seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if b0 <= 0:
        raise ValueError("b0 must be > 0")
    rng = np.random.default_rng(seed)
    eigvals = np.empty((count, n))
    gauss = np.empty((count, n, n))
    targets = np.empty(count)
    # random() draws what uniform(0, 1) does, bit for bit: uniform returns
    # 0 + 1 * u from the same stream.
    for i in range(count):
        rng.random(out=eigvals[i])
        rng.standard_normal(out=gauss[i])
        target = rng.random()
        # Uniform target norm on (0, b0]; resample the rare exact zero.
        while target == 0.0:
            target = rng.random()
        targets[i] = target
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    P = (q * eigvals[:, None, :]) @ q.mT
    P = 0.5 * (P + P.mT)
    flat = P.reshape(count, -1)
    norms = np.sqrt(np.vecdot(flat, flat))  # norm(P, "fro") of one P is this dot product
    return P * (targets * b0 / norms)[:, None, None]


@dataclass
class CovarianceGraph:
    """Closed transition graph over quantized covariance representatives.

    Attributes:
        reps: (Q, n, n) representative covariances.
        succ: (Q, D) successor node index for each (node, method) pair;
            method id rho maps to column rho - 1. Node ids are 0-based.
        delta: achieved quantization coarseness.
        b0: Frobenius bound of the initial sampling region.
        bound: max representative norm after expansion.
        policy: optional per-node first-decision table (1-based method ids).
        policy_meta: parameters the policy was computed for (`qdp.policy_meta`).

    Two private memos ride on the graph. `qdp` and `qdp_matrices` keep the
    tables of the graph's last backward sweep in `_sweep`. `run_loop` and
    `run_lockstep` keep the covariance half of the epochs they have run in
    `_epochs`: the gain, the next covariance and node, and the interior
    traces, keyed on the start covariance's bytes, the method, whether it
    measured and the recorded step count, for one method list (each method's
    steps and R bytes) and one dynamics object (by identity); adaptive-R runs
    bypass it. Its hits come from repeated runs on one graph (see `horizon`),
    and it holds at most `horizon._MEMO_ENTRIES` entries. Construction
    starts both memos empty (so `dataclasses.replace` and `load` do too) and
    `save` never writes them. A graph whose `reps` or `succ` are written into must be rebuilt
    before its next query or run, since both memos go stale, as do the
    cached score operands of `nearest`.
    """

    reps: np.ndarray
    succ: np.ndarray
    delta: float
    b0: float
    bound: float
    policy: np.ndarray | None = None
    policy_meta: dict | None = None
    _sweep: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _epochs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.reps = np.ascontiguousarray(np.asarray(self.reps, dtype=float))
        self.succ = np.ascontiguousarray(np.asarray(self.succ, dtype=np.int64))
        self._flat = self.reps.reshape(self.reps.shape[0], -1)
        self._scorer = _augmented(self._flat)

    @property
    def size(self) -> int:
        return self.reps.shape[0]

    @property
    def n_methods(self) -> int:
        return self.succ.shape[1]

    def nearest(self, P: np.ndarray) -> tuple[int, float]:
        """Nearest representative and its Frobenius distance; ties go to the lowest id.

        A small graph is scanned node by node. A larger one is scored as
        `_nearest_rows` scores one point, with 1-D operands and a Python-float
        band, from the `_augmented` operands cached when the graph was
        constructed, so a graph whose `reps` are written into afterwards must
        be rebuilt (for example with `dataclasses.replace`) before this call.
        """
        if self.size == 0:
            raise ValueError("graph has no representatives")
        x = np.asarray(P, dtype=float).reshape(-1)
        if self._flat.size <= _SCAN_ENTRIES:
            d2 = _sq_dist(self._flat, x)
            idx = int(d2.argmin())
            return idx, sqrt(d2[idx])
        aug, scale = self._scorer
        score = np.concatenate((x, _ONE)) @ aug
        idx = int(score.argmin())
        band = 1e-9 * (scale + float(np.vecdot(x, x)))
        near = np.flatnonzero(score <= score[idx] + band)
        if len(near) > 1:
            idx = int(near[np.argmin(_sq_dist(self._flat[near], x))])
        return idx, sqrt(_sq_dist(self._flat[idx:idx + 1], x)[0])

    def nearest_ids(self, P: np.ndarray) -> np.ndarray:
        """`nearest`'s node id for every member of a stack `(G, n, n)`.

        A small graph is scanned as `nearest` scans it, one row per member and
        node; a larger one is scored by `_nearest_rows`, whose band and exact
        re-rank pick the node `nearest` picks.
        """
        points = P.reshape(len(P), -1)
        if self._flat.size > _SCAN_ENTRIES:
            return _nearest_rows(self._flat, self._scorer, points)[0]
        diff = (self._flat - points[:, None]).reshape(-1, points.shape[1])
        return np.einsum("ij,ij->i", diff, diff).reshape(len(points), -1).argmin(axis=1)

    def save(self, path) -> None:
        payload = {
            "format_version": FORMAT_VERSION,
            "n": int(self.reps.shape[1]),
            "delta": self.delta,
            "b0": self.b0,
            "bound": self.bound,
            "reps": [rep.reshape(-1).tolist() for rep in self.reps],
            "edges": [
                [int(q), int(col + 1), int(self.succ[q, col])]
                for q in range(self.size)
                for col in range(self.n_methods)
            ],
        }
        if self.policy is not None:
            payload["policy"] = [int(p) for p in self.policy]
            payload["policy_meta"] = self.policy_meta or {}
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "CovarianceGraph":
        """Read a graph file written by `save`; a malformed file raises ConfigError."""
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"graph file {path}: not valid JSON: {exc}") from None
        try:
            return cls(**_parse_graph(payload))
        except ConfigError as exc:
            raise ConfigError(f"graph file {path}: {exc}") from None


def _int_array(value, path: str, width: int | None = None) -> np.ndarray:
    """Integers of shape (k,) or, given `width`, (k, width)."""
    shape = (-1,) if width is None else (-1, width)
    try:
        arr = np.array(value)
    except ValueError:
        arr = None
    if arr is None or (arr.size and (arr.dtype.kind not in "iu" or arr.shape[1:] != shape[1:])):
        what = "an array" if width is None else f"rows of {width}"
        raise ConfigError(f"{path}: expected {what} of integers")
    return arr.astype(np.int64).reshape(shape)


def _parse_graph(payload) -> dict:
    """Validated constructor arguments from a graph file's JSON payload."""
    if not isinstance(payload, dict):
        raise ConfigError("expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported graph format {version!r}")
    n = _require(payload, "n", "graph")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("graph.n: expected a positive integer")
    reps = _matrix(_require(payload, "reps", "graph"), "graph.reps")
    if reps.shape[0] == 0 or reps.shape[1] != n * n:
        raise ConfigError(f"graph.reps: expected (Q, {n * n}) values, got shape {reps.shape}")
    if not np.all(np.isfinite(reps)):
        raise ConfigError("graph.reps: non-finite value")
    Q = reps.shape[0]
    # The PSD rule of clamp_psd, for every rep in one stacked eigvalsh.
    square = reps.reshape(Q, n, n)
    lowest = _lapack("eigvalsh", 0.5 * (square + square.mT))[:, 0]
    negative = np.flatnonzero(lowest < -PSD_RTOL * np.linalg.norm(reps, axis=1))
    if negative.size:
        q = int(negative[0])
        raise ConfigError(
            f"graph.reps[{q}]: eigenvalue {lowest[q]:.3e} below the PSD tolerance")

    edges = _int_array(_require(payload, "edges", "graph"), "graph.edges", 3)
    nodes, rhos, targets = edges.T
    D = int(rhos.max(initial=0))
    if rhos.min(initial=1) < 1 or nodes.min(initial=0) < 0 or nodes.max(initial=0) >= Q:
        raise ConfigError(f"graph.edges: (node, method) outside 0..{Q - 1} x 1..{D}")
    keys = nodes * D + rhos - 1
    if len(keys) != Q * D or np.unique(keys).size != Q * D:
        raise ConfigError("graph.edges: every (node, method) pair needs exactly one edge")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= Q:
        raise ConfigError(f"graph.edges: successor outside 0..{Q - 1}")
    succ = np.empty((Q, D), dtype=np.int64)
    succ.reshape(-1)[keys] = targets

    policy = payload.get("policy")
    if policy is not None:
        policy = _int_array(policy, "graph.policy")
        if policy.shape != (Q,) or policy.min(initial=1) < 1 or policy.max(initial=1) > D:
            raise ConfigError(f"graph.policy: expected {Q} method ids in 1..{D}")
    meta = payload.get("policy_meta")
    if meta is not None and not isinstance(meta, dict):
        raise ConfigError("graph.policy_meta: expected an object")
    return {
        "reps": square,
        "succ": succ,
        "delta": _number(_require(payload, "delta", "graph"), "graph.delta"),
        "b0": _number(_require(payload, "b0", "graph"), "graph.b0"),
        "bound": _number(_require(payload, "bound", "graph"), "graph.bound"),
        "policy": policy,
        "policy_meta": meta,
    }


def quantize(P: np.ndarray, graph: CovarianceGraph):
    """Node id of the nearest representative; an id array for a stack `(G, n, n)`."""
    return graph.nearest_ids(P) if P.ndim == 3 else graph.nearest(P)[0]


def default_admit_tol(reps: np.ndarray) -> float:
    """Coarseness of the initial sample set: median nearest-neighbor distance.

    The median (rather than the max, which is driven by the single most
    isolated sample and barely shrinks with the sample count) decreases as the
    set grows, so denser initial sets yield finer expanded graphs. A single
    representative means the coarsest possible quantization (one cell covering
    everything), so its tolerance is infinite. With two or more, the result is
    floored at a small multiple of the representative scale so duplicated or
    fixed-point representatives map to themselves instead of spawning endless
    chains of nearly identical nodes. Distances are exact, from the scorer
    `expand_graph` matches successors with.
    """
    flat = np.asarray(reps, dtype=float).reshape(len(reps), -1)
    count = len(flat)
    if count < 2:
        return np.inf
    floor = 1e-9 * (1.0 + float(np.linalg.norm(flat, axis=1).max(initial=0.0)))
    _, d2 = _nearest_known(flat, flat, exclude=np.arange(count))
    return max(float(np.median(np.sqrt(d2))), floor)


def _sq_dist(known: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance from every row of `known` to the point `x`."""
    diff = known - x
    return np.einsum("ij,ij->i", diff, diff)


def _augmented(known: np.ndarray) -> tuple[np.ndarray, float]:
    """The score operands (aug, scale) of the rows k of `known`.

    aug is `[-2 k^T; |k|^2]`, so `[x, 1] @ aug` is |k|^2 - 2 k.x for every
    row k at once, and scale is 1 + max |k|^2.
    """
    aug = np.empty((known.shape[1] + 1, known.shape[0]))
    np.multiply(known.T, -2.0, out=aug[:-1])
    aug[-1] = np.einsum("ij,ij->i", known, known)
    return aug, 1.0 + float(aug[-1].max(initial=0.0))


def _nearest_rows(known: np.ndarray, scorer, points: np.ndarray,
                  exclude=None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of `known` for each row of `points` and its squared distance.

    Ties go to the lowest id, and distances are exact (`_sq_dist`'s einsum).
    `scorer` is `_augmented(known)`. Points are scored about `_BLOCK` scores
    at a time, each block with one product `[x, 1] @ aug` and no pass
    to scale or shift it, then read by one argmin, a gather of each best
    score and one comparison. Where other rows score within
    1e-9 * (scale + |x|^2) of the best, far above the round-off of the
    score, an exact `_sq_dist` scan of those rows decides. Given `exclude`,
    point i never matches row exclude[i]. This kernel serves `expand_graph`
    and `default_admit_tol`; `CovarianceGraph.nearest` applies the same rule
    to its one point with 1-D operands.
    """
    aug, scale = scorer
    count, Q = len(points), aug.shape[1]
    lifted = np.empty((count, aug.shape[0]))
    lifted[:, :-1] = points
    lifted[:, -1] = 1.0
    band = 1e-9 * (scale + np.vecdot(points, points))
    step = max(1, min(count, _BLOCK // Q))
    scores = np.empty((step, Q))
    near = np.empty((step, Q), dtype=bool)
    # Flat offset of each block row, to gather and scatter one entry per row.
    offsets = np.arange(0, step * Q, Q)
    best = np.empty(count, dtype=np.int64)
    for start in range(0, count, step):
        stop = min(start + step, count)
        rows = stop - start
        block = np.matmul(lifted[start:stop], aug, out=scores[:rows])
        flat = block.reshape(-1)
        if exclude is not None:
            flat[offsets[:rows] + exclude[start:stop]] = np.inf
        j = block.argmin(axis=1)
        hits = np.less_equal(block, (flat[offsets[:rows] + j] + band[start:stop])[:, None],
                             out=near[:rows])
        # Each row's best is in its own band; more hits mean a near tie somewhere.
        if np.count_nonzero(hits) > rows:
            for i in np.flatnonzero(np.count_nonzero(hits, axis=1) > 1):
                cand = np.flatnonzero(hits[i])
                j[i] = cand[np.argmin(_sq_dist(known[cand], points[start + i]))]
        best[start:stop] = j
    diff = known[best] - points
    return best, np.einsum("ij,ij->i", diff, diff)


def _nearest_known(known: np.ndarray, points: np.ndarray, exclude=None):
    """`_nearest_rows` against `known`, its score operands built for this call."""
    return _nearest_rows(known, _augmented(known), points, exclude)


def expand_graph(
    reps,
    methods,
    dyn: DiscretizedDynamics,
    admit_tol: float | None = None,
    b0: float | None = None,
    max_growth: int = 100,
) -> CovarianceGraph:
    """Close the per-method successor map, admitting new nodes as needed.

    For every node and method the filter covariance step (nominal R) is
    computed; if its nearest existing representative is farther than
    `admit_tol` the successor becomes a new node, otherwise the edge points at
    that representative. Aborts if the node count exceeds `max_growth` times
    the initial count, which a valid boundedness certificate rules out.

    Successors are computed in batches: all known, unexpanded nodes are
    stepped with one `riccati_step` call per method and chunk, and each
    chunk's successors are matched against every node known when the chunk
    starts. Admission follows the (node, method) order: each node admitted in
    a chunk becomes a candidate for every later successor, so the graph equals
    the one a node-by-node expansion builds.
    """
    reps = np.asarray(reps, dtype=float)
    if reps.ndim != 3 or reps.shape[0] == 0:
        raise ValueError("reps must be a non-empty (Q, n, n) array")
    initial = reps.shape[0]
    n = reps.shape[1]
    if admit_tol is None:
        admit_tol = default_admit_tol(reps)
    if b0 is None:
        b0 = float(max(np.linalg.norm(rep, "fro") for rep in reps))

    cap = initial * max_growth
    store = np.zeros((max(initial * 2, 16), n * n))
    store[:initial] = reps.reshape(initial, -1)
    count = initial
    succ_blocks = []
    achieved_delta = 0.0

    done = 0
    while methods and done < count:
        known = count
        for start in range(done, known, _CHUNK):
            stop = min(start + _CHUNK, known)
            P = store[start:stop].reshape(-1, n, n)
            # Rows in (node, method) order, the order of admission.
            nxt = np.stack([riccati_step(P, m, dyn) for m in methods], axis=1)
            nxt = nxt.reshape(-1, n * n)
            j, d2 = _nearest_known(store[:count], nxt)
            dist = np.sqrt(d2)
            pos = 0
            while True:
                over = np.flatnonzero(dist[pos:] > admit_tol)
                i = pos + over[0] if over.size else len(dist)
                achieved_delta = max(achieved_delta, float(dist[pos:i].max(initial=0.0)))
                if i == len(dist):
                    break
                if count == cap:
                    raise GraphExpansionError(
                        f"expansion exceeded {max_growth}x the initial node count "
                        f"({cap}); check the model for unbounded covariance growth"
                    )
                if count == store.shape[0]:
                    store = np.vstack([store, np.zeros_like(store)])
                store[count] = nxt[i]
                j[i] = count
                # The new node is a candidate for every later successor.
                diff = nxt[i + 1:] - nxt[i]
                d2_here = np.einsum("ij,ij->i", diff, diff)
                closer = i + 1 + np.flatnonzero(d2_here < d2[i + 1:])
                j[closer], d2[closer] = count, d2_here[closer - i - 1]
                dist[closer] = np.sqrt(d2[closer])
                count += 1
                pos = i + 1
            succ_blocks.append(j.reshape(-1, len(methods)))
        done = known

    final = store[:count].reshape(count, n, n)
    bound = float(np.linalg.norm(final.reshape(count, -1), axis=1).max())
    succ = np.concatenate(succ_blocks) if succ_blocks else np.zeros((count, 0))
    return CovarianceGraph(
        reps=final,
        succ=succ,
        delta=achieved_delta,
        b0=b0,
        bound=bound,
    )
