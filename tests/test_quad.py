import numpy as np
import pytest

from fraclab._quad import (NODE_CAP, bisect_edges, gl8_panels, graded_edges,
                           node_chunks, periodic_edges)


def test_gl8_panels_padding_contributes_nothing():
    edges = np.array([[0.0, 0.5, 1.0, 1.0, 1.0],
                      [0.0, 0.25, 0.5, 0.75, 1.0]])
    x, w = gl8_panels(edges)
    assert x.shape == w.shape == (2, 32)
    assert np.all(w[0, 16:] == 0.0)
    # degree-15 exactness on every panel
    np.testing.assert_allclose(np.sum(w * x ** 15, axis=1), 1.0 / 16.0,
                               rtol=1e-14)


def test_bisect_edges_inserts_midpoints():
    np.testing.assert_array_equal(bisect_edges([[0.0, 1.0, 3.0]]),
                                  [[0.0, 0.5, 1.0, 2.0, 3.0]])


def test_graded_edges_octaves():
    e = graded_edges([0.0, 1.0], [0.25, 0.5], 1.0)
    np.testing.assert_array_equal(np.unique(e[0]),
                                  [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])
    np.testing.assert_array_equal(np.unique(e[1]), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.all(np.diff(e, axis=1) >= 0.0)


def _periodic_reference(centers, scales, period, tol=1e-13):
    """One row of periodic_edges, merged one edge at a time."""
    lo, hi = centers[0] - period / 2.0, centers[0] + period / 2.0
    edges = {lo, hi}
    for c, sc in zip(centers, scales):
        for e in np.unique(graded_edges(c, max(sc, 1e-14), period / 2.0)):
            edges.add(float(np.clip((e - lo) % period + lo, lo, hi)))
    out = []
    for e in sorted(edges):
        if not out or e - out[-1] > tol:
            out.append(e)
    return np.array(out)


def test_periodic_edges_merge_rule():
    rng = np.random.Generator(np.random.Philox(key=3))
    n = 40
    centers = rng.uniform(-4.0, 4.0, (n, 2))
    scales = 10.0 ** rng.uniform(-14.5, 0.5, (n, 2))
    centers[::3, 1] = centers[::3, 0] + 3e-14   # nearly coincident anchors
    scales[::4, 0] = 2e-14                      # edges chained below 1e-13
    got = periodic_edges(centers, scales, 2.0 * np.pi)
    for i in range(n):
        ref = _periodic_reference(centers[i], scales[i], 2.0 * np.pi)
        np.testing.assert_array_equal(got[i, :len(ref)], ref)
        assert np.all(got[i, len(ref):] == ref[-1])


@pytest.mark.parametrize("sizes", [[5] * 10, [3000, 10, 70000, 500] * 20])
def test_node_chunks_cover_rows_within_cap(sizes):
    sizes = np.array(sizes)
    seen = []
    for rows in node_chunks(sizes):
        assert len(rows) == 1 or np.sum(sizes[rows]) <= NODE_CAP
        seen.extend(rows.tolist())
    assert sorted(seen) == list(range(len(sizes)))
