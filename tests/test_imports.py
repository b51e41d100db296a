"""Importing the package loads only the scipy subpackages that every run
needs; the rest are imported where they are used."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import chi2

import pilotwave as pw
from pilotwave.stats import _chi2_sf

SRC = Path(__file__).parent.parent / "src"
DEFERRED = ("scipy.stats", "scipy.interpolate", "scipy.sparse")


def test_import_leaves_the_deferred_scipy_subpackages_unloaded():
    code = ("import sys, pilotwave, pilotwave.scenarios, pilotwave.io; "
            f"print([m for m in {DEFERRED!r} if m in sys.modules])")
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_chi2_sf_has_the_bytes_of_scipy_stats():
    stats = np.concatenate([[0.0, 1e-300, 1e-12, np.inf],
                            np.geomspace(1e-6, 2e4, 97)])
    for dof in [0, 1, 2, 3, 7, 48, 49, 500, 5000]:
        for stat in stats:
            want = np.float64(chi2.sf(stat, dof)).tobytes()
            assert np.float64(_chi2_sf(float(stat), dof)).tobytes() == want


def test_chi_square_gof_p_value_is_scipy_stats_chi2_sf(grid1d):
    psi = pw.gaussian_packet(grid1d, 0.0, 1.0)
    for n, seed in [(40, 2), (1000, 3), (10000, 42)]:
        samples = pw.born_sample(psi, n, seed=seed)[:, 0]
        stat, dof, p = pw.chi_square_gof(samples, pw.density(psi))
        assert np.float64(p).tobytes() == np.float64(chi2.sf(stat, dof)).tobytes()


def test_only_the_trajectories_loop_takes_rk4_steps():
    users = [p.name for p in sorted((SRC / "pilotwave").glob("*.py"))
             if "_rk4_step" in p.read_text() and p.name != "trajectories.py"]
    assert users == []
