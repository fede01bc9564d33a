"""The package needs numpy alone: the CLI and every protocol run with scipy
unimportable, and importing the package leaves numpy.random unimported.

scipy is a test dependency only.  Here it pins the package's numpy
replacements of cumulative_trapezoid and rankdata bit for bit.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid
from scipy.stats import rankdata

from sosrep.harness import _average_ranks, _bump, _bump_cdf
from sosrep.sdo_kernel import SdoParams, _cumulative_trapezoid, _radial_table, radial_density

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)


# Tiny data files and one run of each CLI command, with any import of scipy
# raising ImportError; stdout ends with the scipy modules loaded at that point.
_CLI_RUNS = """
    import sys
    sys.modules["scipy"] = None
    import numpy as np
    import sosrep
    from sosrep.cli import main

    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(54, 2)), rng.uniform(-6, 6, size=(6, 2))])
    y = np.r_[np.zeros(54, dtype=int), np.ones(6, dtype=int)]
    with open("ad.csv", "w") as fh:
        fh.write("f0,f1,label\\n")
        fh.writelines(f"{a:.17g},{b:.17g},{c}\\n" for (a, b), c in zip(X, y))
    fit = ["--n-z", "64", "--n-iters", "50"]
    fd = ["--a-grid", "log:1e-2:1e2:7", "--n-fd-iters", "3"]
    ad = ["--data", "ad.csv", *fit, *fd, "--sigma-grid", "log:0.1:5:7",
          "--fd-max-rows", "8", "--seeds", "0"]
    runs = [
        ["--help"],
        ["fit", "--data", "ad.csv", "--a", "0.5", *fit, "--out", "m.json",
         "--metrics", "fm.json"],
        ["score", "--model", "m.json", "--data", "ad.csv", "--out", "s.csv"],
        ["tune", "--data", "ad.csv", *fit, *fd, "--out", "t.json"],
        ["two-block", "--n", "10", "--gamma", "0.5", "--gamma-prime", "0.2",
         "--n-iters", "200", "--out", "tb.json"],
        ["experiment", "--protocol", "ad", "--methods", "all", *ad, "--out", "ad.json"],
        ["experiment", "--protocol", "duplicates", "--methods", "sosrep_sdo,kde_sdo",
         "--k-values", "1,2", *ad, "--out", "dup.json"],
        ["experiment", "--protocol", "negfrac", "--data", "ad.csv", "--n-z", "64",
         "--n-init", "5", "--n-iters", "20", "--out", "nf.json"],
        ["experiment", "--protocol", "consistency", "--sample-sizes", "20,40",
         "--n-reps", "1", "--n-z", "64", "--n-iters", "50", "--grid-n", "51",
         "--out", "c.json"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    print(sorted(m for m, mod in sys.modules.items()
                 if mod is not None and m.split(".")[0] == "scipy"))
"""


def test_cli_and_protocols_run_with_scipy_unimportable(tmp_path):
    proc = _run_python(_CLI_RUNS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_numpy_random_is_imported_by_the_first_generator(tmp_path):
    # importing the package ahead of the caller's data leaves numpy.random
    # out, which keeps about 0.6 MB off the peak RSS of a run that never
    # draws; the first rng_from_seed call brings it in
    proc = _run_python("""
    import sys
    import sosrep
    from sosrep.sdo_kernel import rng_from_seed
    before = "numpy.random" in sys.modules
    rng_from_seed(0, 1)
    print(before, "numpy.random" in sys.modules)
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_run_ad_works_with_scipy_unimportable(tmp_path):
    code = """
    import sys
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    import numpy as np
    import sosrep as sp

    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(size=(54, 2)), rng.uniform(-6, 6, size=(6, 2))])
    ds = sp.Dataset(X=X, y=np.r_[np.zeros(54, dtype=int), np.ones(6, dtype=int)])
    config = sp.AdConfig(T=64, n_iters=50, n_fd_iters=3, fd_max_rows=8,
                         a_grid=tuple(np.geomspace(1e2, 1e-2, 7)),
                         sigma_grid=tuple(np.geomspace(5.0, 0.1, 7)))
    for method in sp.AD_METHODS:
        report = sp.run_ad(ds, method, seeds=(0,), config=config)
        assert report.aucs and not report.warnings, (method, report.warnings)
    """
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
)


@given(values=hnp.arrays(np.float64, st.integers(1, 40), elements=_values))
@example(values=np.array([3.0]))
@example(values=np.array([np.inf]))
@example(values=np.array([-np.inf, -np.inf, -np.inf]))
@example(values=np.array([0.0, -0.0, 0.0]))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_rankdata(values):
    assert np.array_equal(_average_ranks(values), rankdata(values))


@given(
    y=hnp.arrays(np.float64, st.integers(1, 60),
                 elements=st.floats(-1e6, 1e6, allow_nan=False)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cumulative_trapezoid_matches_scipy(y, seed):
    x = np.cumsum(np.random.default_rng(seed).exponential(size=y.size))
    assert np.array_equal(_cumulative_trapezoid(y, x),
                          cumulative_trapezoid(y, x, initial=0.0))


def test_cumulative_trapezoid_matches_scipy_on_the_package_grids():
    for m, d in ((1, 1), (2, 2), (3, 5)):
        r, cdf = _radial_table(m, d)
        expected = cumulative_trapezoid(radial_density(r, SdoParams(a=1.0, d=d, m=m)), r,
                                        initial=0.0)
        expected = expected / expected[-1]
        expected[-1] = 1.0
        assert np.array_equal(cdf, expected)
    u, cdf = _bump_cdf()
    expected = cumulative_trapezoid(_bump(u), u, initial=0.0)
    assert np.array_equal(cdf, expected / expected[-1])
