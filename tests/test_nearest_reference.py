"""The one-product nearest-node kernel against the two-pass scorer it replaced.

`reference_nearest_rows` and `reference_nearest_known` are the earlier
`covgraph` scorer, kept frozen: scores |k|^2 - 2 k.x over every entry from a
product, a scaled copy and an added norm row, blocks of 2^18 entries, the
best score read by a second reduction. Both scorers send every row within
1e-9 (scale + |x|^2) of the best to the exact `_sq_dist` re-rank, so node ids
and squared distances must agree bit for bit: on random stacks here and on
graphs and runs built from the shipped configs. The current scorer reads
only the distinct entries of a point when every row is an exactly symmetric
matrix, and every entry otherwise; both paths must agree with the reference.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    CovarianceGraph,
    attach_policy,
    build_dynamics,
    expand_graph,
    quantize,
    sample_region,
)
from latsched import covgraph
from latsched.config import load_scenario
from latsched.experiments import _tracks, _truths

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_BLOCK = 1 << 18


def reference_sq_dist(known, x):
    diff = known - x
    return np.einsum("ij,ij->i", diff, diff)


def reference_nearest_rows(known, sq, scale, points, exclude=None):
    """Nearest row of `known` for each row of `points`, scored in one block."""
    d2 = points @ known.T
    d2 *= -2.0
    d2 += sq
    if exclude is not None:
        d2[np.arange(len(points)), exclude] = np.inf
    best = d2.argmin(axis=1)
    band = 1e-9 * (scale + np.vecdot(points, points))
    near = d2 <= (d2.min(axis=1) + band)[:, None]
    if np.count_nonzero(near) > len(points):
        for i in np.flatnonzero(near.sum(axis=1) > 1):
            rows = np.flatnonzero(near[i])
            best[i] = rows[np.argmin(reference_sq_dist(known[rows], points[i]))]
    return best


def reference_nearest_known(known, points, exclude=None):
    """Nearest known node and its squared distance, over blocks of points."""
    sq = np.einsum("ij,ij->i", known, known)
    scale = 1.0 + sq.max()
    j = np.empty(len(points), dtype=np.int64)
    step = max(1, REFERENCE_BLOCK // len(known))
    for start in range(0, len(points), step):
        block = slice(start, start + step)
        j[block] = reference_nearest_rows(known, sq, scale, points[block],
                                          None if exclude is None else exclude[block])
    diff = known[j] - points
    return j, np.einsum("ij,ij->i", diff, diff)


def reference_nearest(graph, P):
    """`CovarianceGraph.nearest` as the reference scorer answers it."""
    flat = graph.reps.reshape(graph.size, -1)
    x = np.asarray(P, dtype=float).reshape(1, -1)
    if flat.size <= covgraph._SCAN_ENTRIES:
        d2 = reference_sq_dist(flat, x)
        idx = int(np.argmin(d2))
        return idx, float(np.sqrt(d2[idx]))
    sq = np.einsum("ij,ij->i", flat, flat)
    idx = int(reference_nearest_rows(flat, sq, 1.0 + float(sq.max()), x)[0])
    return idx, float(np.sqrt(reference_sq_dist(flat[idx:idx + 1], x)[0]))


@st.composite
def stacks_and_points(draw):
    """(Q, n, n) stacks, exactly symmetric or not, with duplicated and nearly
    duplicated rows, and points on, between, beside or away from them; the
    points need not be symmetric."""
    n = draw(st.integers(1, 3))
    d = n * n
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(values, min_size=d, max_size=12 * d)))
    base = base[:len(base) // d * d].reshape(-1, n, n)
    symmetric = draw(st.booleans())
    if symmetric:
        base = 0.5 * (base + base.mT)
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=16))
    known = base[picks]
    # Nudge some copies by amounts whose squared-distance change falls inside,
    # at the edge of, or outside the re-rank band; a symmetric stack stays so.
    for i in draw(st.lists(st.integers(0, len(known) - 1), max_size=4)):
        step = draw(st.sampled_from([1e-13, 1e-10, 1e-7, 1e-4])) * (1.0 + abs(known[i]).max())
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        known[i, a, b] += step
        if symmetric and a != b:
            known[i, b, a] += step
    known = known.reshape(-1, d)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row", "between", "beside", "free"]))
        i, j = draw(st.integers(0, len(known) - 1)), draw(st.integers(0, len(known) - 1))
        if kind == "row":
            points.append(known[i])
        elif kind == "between":
            points.append(0.5 * (known[i] + known[j]))
        elif kind == "beside":
            points.append(known[i] + draw(st.sampled_from([1e-12, 1e-8, 1e-3])))
        else:
            points.append(np.array(draw(st.lists(values, min_size=d, max_size=d))))
    points = np.array(points)
    exclude = None
    if len(known) > 1 and draw(st.booleans()):
        exclude = np.array(draw(st.lists(st.integers(0, len(known) - 1),
                                         min_size=len(points), max_size=len(points))))
    return known.reshape(-1, n, n), points, exclude


@settings(max_examples=300, deadline=None)
@given(case=stacks_and_points(), block=st.sampled_from([1, 7, None]))
def test_kernel_matches_reference(case, block):
    reps, points, exclude = case
    known = reps.reshape(len(reps), -1)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(covgraph, "_BLOCK", block)
        j, d2 = covgraph._nearest_known(known, points, exclude=exclude)
    ref_j, ref_d2 = reference_nearest_known(known, points, exclude=exclude)
    assert np.array_equal(j, ref_j)
    assert np.array_equal(d2, ref_d2)
    if exclude is not None:
        assert not np.any(j == exclude)
    graph = CovarianceGraph(reps=reps, succ=np.zeros((len(reps), 1)), delta=0.0, b0=1.0,
                            bound=1.0)
    for threshold in (0, covgraph._SCAN_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covgraph, "_SCAN_ENTRIES", threshold)
            for x in points:
                P = x.reshape(reps.shape[1:])
                assert graph.nearest(P) == reference_nearest(graph, P)


@pytest.mark.parametrize("row", [[2.0, -1.0, 0.5, 3.0], [2.0, -1.0, -1.0, 3.0]])
def test_one_row_graph(row):
    known = np.array([row])
    points = np.array([row, [0.0, 0.0, 0.0, 0.0], [1e3, 2.0, -7.0, 1.0]])
    j, d2 = covgraph._nearest_known(known, points)
    assert np.array_equal(j, [0, 0, 0])
    assert np.array_equal(d2, reference_nearest_known(known, points)[1])
    graph = CovarianceGraph(reps=known.reshape(1, 2, 2), succ=[[0]], delta=0.0, b0=1.0,
                            bound=1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covgraph, "_SCAN_ENTRIES", 0)
        for x in points:
            assert graph.nearest(x.reshape(2, 2)) == reference_nearest(graph, x.reshape(2, 2))


def shipped_graph(name, count, scorer):
    """The scenario's graph from `count` seeds (the config's if None) under `scorer`."""
    cfg = load_scenario(CONFIGS / f"{name}.json")
    dyn = build_dynamics(cfg.model, cfg.methods)
    reps = sample_region(cfg.model.n_x, cfg.graph.b0, count or cfg.graph.count, cfg.graph.seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covgraph, "_nearest_known", scorer)
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
    attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return cfg, dyn, graph


@pytest.mark.parametrize("name,count", [("occlusion_run", None), ("double_integrator", None),
                                        ("double_integrator", 5000), ("noise_mismatch", None)])
def test_shipped_graphs_match_reference(name, count):
    _, _, graph = shipped_graph(name, count, covgraph._nearest_known)
    _, _, ref = shipped_graph(name, count, reference_nearest_known)
    assert np.array_equal(graph.reps, ref.reps)
    assert np.array_equal(graph.succ, ref.succ)
    assert (graph.delta, graph.bound) == (ref.delta, ref.bound)
    assert np.array_equal(graph.policy, ref.policy)
    if name == "double_integrator":
        # The default admission radius (the `exclude` path) admitted nodes.
        assert graph.size > (count or 500)


def test_occlusion_run_quantizes_as_reference():
    cfg, dyn, graph = shipped_graph("occlusion_run", None, covgraph._nearest_known)
    assert graph.reps.size > covgraph._SCAN_ENTRIES
    (trace,), _ = _tracks(cfg, dyn, graph, *_truths(cfg, [np.random.SeedSequence(cfg.sim.seed)]))
    beliefs = [epoch.belief.Phat for epoch in trace.epochs]
    assert len(beliefs) > 50
    for P in beliefs:
        idx, dist = reference_nearest(graph, P)
        assert quantize(P, graph) == idx
        assert graph.nearest(P) == (idx, dist)


def distinct_entries(scorer):
    """How many coordinates the scorer reads of a point: its pair count."""
    return len(scorer[2][0])


def assert_matches_reference(graph, points):
    """Every scorer entry point answers `points` as the reference scorer does."""
    n = graph.reps.shape[1]
    known = graph.reps.reshape(graph.size, -1)
    flat = points.reshape(len(points), -1)
    ref_j, ref_d2 = reference_nearest_known(known, flat)
    for block in (7, covgraph._BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covgraph, "_BLOCK", block)
            j, d2 = covgraph._nearest_known(known, flat)
            assert np.array_equal(graph.nearest_ids(points.reshape(-1, n, n)), ref_j)
        assert np.array_equal(j, ref_j)
        assert np.array_equal(d2, ref_d2)
    for P in points.reshape(-1, n, n):
        assert graph.nearest(P) == reference_nearest(graph, P)


def symmetric_case(count=600, n=3):
    """A scored graph of symmetric reps and points on, between and off them."""
    reps = sample_region(n, 1.0, count, seed=17)
    reps[5] = reps[3]  # an exact duplicate: a tie the lowest id wins
    points = np.concatenate([reps[:40], 0.5 * (reps[:40] + reps[40:80]),
                             sample_region(n, 1.2, 60, seed=18)])
    graph = CovarianceGraph(reps=reps, succ=np.zeros((count, 1), dtype=int), delta=0.0,
                            b0=1.0, bound=1.0)
    assert graph.reps.size > covgraph._SCAN_ENTRIES
    return graph, points


def test_symmetric_stack_is_scored_on_distinct_entries():
    graph, points = symmetric_case()
    assert distinct_entries(graph._scorer) == 6
    assert distinct_entries(covgraph._augmented(graph._flat)) == 6
    assert_matches_reference(graph, points)


def test_one_ulp_asymmetry_scores_every_entry():
    graph, points = symmetric_case()
    reps = graph.reps.copy()
    reps[250, 0, 2] = np.nextafter(reps[250, 0, 2], np.inf)
    graph = CovarianceGraph(reps=reps, succ=graph.succ, delta=0.0, b0=1.0, bound=1.0)
    assert distinct_entries(graph._scorer) == 9
    assert_matches_reference(graph, np.concatenate([points, reps[249:252]]))


def test_asymmetric_points_against_symmetric_reps():
    graph, points = symmetric_case()
    rng = np.random.default_rng(19)
    skew = points + rng.normal(scale=0.05, size=points.shape)
    assert not np.array_equal(skew, skew.transpose(0, 2, 1))
    assert distinct_entries(graph._scorer) == 6
    assert_matches_reference(graph, skew)


def test_reloaded_graph_keeps_distinct_entries(tmp_path):
    graph, points = symmetric_case()
    graph.save(tmp_path / "graph.json")
    loaded = CovarianceGraph.load(tmp_path / "graph.json")
    assert np.array_equal(loaded.reps, graph.reps)
    assert distinct_entries(loaded._scorer) == 6
    assert_matches_reference(loaded, points)
