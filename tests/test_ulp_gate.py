"""The one-ulp gates of tests/oracles.py, and the package judged by them.

The half-angle feature map is not bit for bit np.cos's, and at small a the
fits are sensitive to the last bits of their features.  The gate asks
whether the package's results lie within what one-ulp copies of the input
produce under np.cos features; these tests check the copies, the gate's
verdicts, and the package on one small run_ad cell.

A batch fit makes one matrix-matrix product per iteration, not one
matrix-vector product per start, and the standard arm of
negative_fraction_experiment is rounding-chaotic.  The negfrac gate asks
whether the package's report lies within what one-ulp copies of X produce
with per-start products; these tests check its verdicts and the package on
one small criterion-11-like cell.
"""

import numpy as np
import pytest

import sosrep as sp
from conftest import make_mixture2d, make_two_clusters

import oracles

SEEDS = (0, 1)
K = 8


class TestUlpCopies:
    def test_seeded_and_within_one_ulp(self):
        X = np.random.default_rng(3103).normal(size=(500, 3)) * 10.0 ** np.arange(-3, 3, 2)
        copies = oracles.ulp_copies(X, 4, seed=7)
        again = oracles.ulp_copies(X, 4, seed=7)
        assert all(np.array_equal(c, d) for c, d in zip(copies, again))
        assert not np.array_equal(copies[0], oracles.ulp_copies(X, 1, seed=8)[0])
        up, down = np.nextafter(X, np.inf), np.nextafter(X, -np.inf)
        for c in copies:
            assert c.shape == X.shape and c.dtype == X.dtype
            assert np.all((c == X) | (c == up) | (c == down))
            # every move is taken: kept, one ulp up and one ulp down
            assert 0 < np.sum(c == up) and 0 < np.sum(c == down) and 0 < np.sum(c == X)

    def test_numpy_cosines_swap_the_package_cosines(self):
        X = np.random.default_rng(3104).normal(size=(20, 2))
        fs = sp.sample_frequencies(sp.SdoParams(a=1e-3, d=2), 64, seed=1)
        with oracles.numpy_cosines():
            Phi = sp.feature_map(X, fs)
        assert np.array_equal(Phi, oracles.feature_map(X, fs))
        assert np.max(np.abs(sp.feature_map(X, fs) - Phi)) <= 4 * np.finfo(float).eps / 8


@pytest.fixture(scope="module")
def small_cell():
    """(one-ulp spread of the np.cos package, the package's report) on a
    small criterion-10-like cell: n = 300, T = 256, the 11-point a grid."""
    ds = make_mixture2d(n=300, outlier_frac=0.05, seed=0)
    config = sp.AdConfig(T=256, n_iters=200, n_fd_iters=10, fd_max_rows=64,
                         a_grid=tuple(np.geomspace(1e2, 1e-4, 11)))
    with oracles.numpy_cosines():
        spread = oracles.ulp_spread(ds, "sosrep_sdo", SEEDS, config, K)
    return spread, sp.run_ad(ds, "sosrep_sdo", seeds=SEEDS, config=config)


@pytest.mark.parametrize("seed", SEEDS)
def test_package_within_numpy_cosine_copies(small_cell, seed):
    spread, report = small_cell
    assert spread[seed].runs == K + 1
    assert oracles.ulp_gate(spread[seed], oracles.ad_cell(report, seed)) == []


def test_gate_flags_a_moved_pick_auc_or_entry(small_cell):
    spread, report = small_cell
    ref = spread[SEEDS[0]]
    cell = oracles.ad_cell(report, SEEDS[0])
    a, (base, width) = next(iter(ref.conditioned().items()))
    other_pick = next(x for x in report.config["a_grid"] if x != cell["pick"])
    other_kind = "edge" if cell["kind"] != "edge" else "stable"
    moved = [
        dict(cell, pick=other_pick),
        dict(cell, kind=other_kind),
        dict(cell, auc=ref.auc[0] - 1e-3),
        dict(cell, fd={**cell["fd"], a: base + 11 * width + 1e-12 * abs(base)}),
    ]
    assert [len(oracles.ulp_gate(ref, c)) for c in moved] == [1, 1, 1, 1]


NEGFRAC_CFG = dict(a=1.0, T=256, n_init=10, n_iters=400, lr=0.02, seed=0)


@pytest.fixture(scope="module")
def negfrac_cell():
    """(one-ulp negfrac spread with per-start products, the package's report)
    on the two-cluster data: N = 200, T = 256, 10 starts of 400 iterations."""
    ds = make_two_clusters()
    return (oracles.negfrac_spread(ds, NEGFRAC_CFG, K),
            sp.negative_fraction_experiment(ds, **NEGFRAC_CFG))


def test_package_negfrac_within_per_start_copies(negfrac_cell):
    spread, report = negfrac_cell
    assert spread.runs == K + 1
    assert oracles.negfrac_gate(spread, report) == []


def test_negfrac_gate_flags_each_rule(negfrac_cell):
    spread, report = negfrac_cell

    def moved(method, **fields):
        arm = dict(report["methods"][method], **fields)
        return dict(report, methods=dict(report["methods"], **{method: arm}))

    natural = report["methods"]["natural"]
    standard = spread.ranges["standard"]
    cases = [
        moved("natural", fractions=[0.5] + natural["fractions"][1:]),
        moved("natural", n_divergent=natural["n_divergent"] + 1),
        dict(report, init=dict(report["init"], worst5_mean=report["init"]["worst5_mean"] + 0.01)),
        moved("standard", mean_fraction=standard["mean_fraction"][1] + 0.01),
        moved("standard", worst5_mean=standard["worst5_mean"][0] - 0.01),
        moved("natural", worst5_mean=report["methods"]["standard"]["worst5_mean"]),
    ]
    assert [len(oracles.negfrac_gate(spread, c)) for c in cases] == [1, 1, 1, 1, 1, 1]
