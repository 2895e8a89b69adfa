"""`sample_region` against the per-draw loop it replaced.

`reference_sample_region` is the earlier `covgraph.sample_region`, kept
frozen: one generator call for each sample's eigenvalues, one for its normals
and one for its target norm, redrawn while it is exactly zero. The current
function reads a target and the next sample's eigenvalues in one call, so its
samples, and the state it leaves a caller's generator in, must agree bit for
bit, the zero-target resample included.
"""

import numpy as np
import pytest

from latsched import sample_region


def reference_sample_region(n, b0, count, seed):
    rng = np.random.default_rng(seed)
    eigvals = np.empty((count, n))
    gauss = np.empty((count, n, n))
    targets = np.empty(count)
    for i in range(count):
        rng.random(out=eigvals[i])
        rng.standard_normal(out=gauss[i])
        target = rng.random()
        while target == 0.0:
            target = rng.random()
        targets[i] = target
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    P = (q * eigvals[:, None, :]) @ q.mT
    P = 0.5 * (P + P.mT)
    flat = P.reshape(count, -1)
    norms = np.sqrt(np.vecdot(flat, flat))
    return P * (targets * b0 / norms)[:, None, None]


class ZeroAt(np.random.Generator):
    """A PCG64 generator whose uniform draws at the given positions read 0.0.

    Positions count uniform doubles only, across calls of any size, so the
    per-draw loop and the joined draws see the zero at the same place in the
    stream. No seed makes an exact zero in practice (2^-53 per draw).
    """

    def __init__(self, seed, positions):
        super().__init__(np.random.PCG64(seed))
        self.positions = set(positions)
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        result = super().random(size, dtype, out)
        width = 1 if np.ndim(result) == 0 else np.size(result)
        hits = [p - self.drawn for p in sorted(self.positions)
                if self.drawn <= p < self.drawn + width]
        self.drawn += width
        if np.ndim(result) == 0:
            return 0.0 if hits else result
        result.reshape(-1)[hits] = 0.0
        return result


@pytest.mark.parametrize("n,count,seed", [
    (1, 1, 0), (1, 9, 4), (2, 2, 1), (3, 50, 21), (4, 1, 8), (4, 300, 15), (5, 20, 99),
])
def test_matches_per_draw_loop(n, count, seed):
    assert np.array_equal(sample_region(n, 1.7, count, seed),
                          reference_sample_region(n, 1.7, count, seed))


def target_position(n, i):
    """Where sample i's target sits among the uniform draws, no zero before it."""
    return i * (n + 1) + n


@pytest.mark.parametrize("n,count,positions,redraws", [
    # The first target, twice in a row, so the resample itself is redrawn.
    (3, 4, [target_position(3, 0), target_position(3, 0) + 1], 2),
    # A middle target and the last one, which is drawn alone; the first
    # redraw moves the last target up one place.
    (2, 5, [target_position(2, 2), target_position(2, 4) + 1], 2),
    (1, 1, [target_position(1, 0)], 1),
    # An eigenvalue of zero is kept, not redrawn.
    (4, 3, [1, target_position(4, 1)], 1),
])
def test_zero_target_is_redrawn_as_the_loop_redraws_it(n, count, positions, redraws):
    ours, ref = ZeroAt(5, positions), ZeroAt(5, positions)
    got = sample_region(n, 2.0, count, ours)
    assert np.array_equal(got, reference_sample_region(n, 2.0, count, ref))
    assert ours.drawn == ref.drawn == count * (n + 1) + redraws
    assert np.all(np.linalg.norm(got.reshape(count, -1), axis=1) > 0.0)
    assert ours.random(4).tolist() == ref.random(4).tolist()


@pytest.mark.parametrize("n,count", [(1, 1), (2, 7), (4, 40)])
def test_caller_generator_ends_where_the_loop_leaves_it(n, count):
    ours, ref = np.random.default_rng(12), np.random.default_rng(12)
    sample_region(n, 1.0, count, ours)
    reference_sample_region(n, 1.0, count, ref)
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.standard_normal(3).tolist() == ref.standard_normal(3).tolist()
