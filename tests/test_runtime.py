"""The runtime needs numpy only; scipy serves here as the reference.

The masked fit's conjugate gradients and the smooth filter bank's blur
repeat scipy's ``cg`` and ``gaussian_filter`` in numpy; they must give the
same iterations and the same bits.  Every module's ``__all__`` names only
what the module defines, each once, so ``import *`` cannot break unseen.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage
import scipy.sparse.linalg

import lrdec
from lrdec.solver import _pcg
from lrdec.synth import _blur_wrap, make_filters

RNG = np.random.default_rng


def test_import_and_fits_load_no_scipy():
    code = "\n".join([
        "import json, sys",
        "import numpy as np",
        "from lrdec import (SolverConfig, lrd_fit_masked, make_filters,",
        "                   make_problem)",
        "d, _, s = make_problem((8, 7), (3, 3), 2, 2, seed=0)",
        "mask = np.random.default_rng(1).uniform(size=s.shape) > 0.3",
        "lrd_fit_masked(s, mask, d, SolverConfig(rank=2, outer_iters=2))",
        "make_filters((5, 5), 3, seed=0, style='smooth')",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] == 'scipy')))",
    ])
    src = str(Path(lrdec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []


def test_every_public_name_is_defined_once():
    modules = [lrdec] + [importlib.import_module(f"lrdec.{info.name}")
                         for info in pkgutil.iter_modules(lrdec.__path__)]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(set(names)) == len(names), module.__name__
        assert [n for n in names if not hasattr(module, n)] == [], \
            module.__name__
    assert checked >= 2


def spd_system(n, seed):
    """A seeded SPD matrix, its Jacobi preconditioner and a right-hand side."""
    rng = RNG(seed)
    q = rng.standard_normal((n, n))
    a = q @ q.T + np.eye(n)
    return a, 1.0 / np.diag(a), rng.standard_normal(n)


PCG_CASES = [
    (0, "zero", "random", 500, 0.0),     # converged from a cold start
    (1, "random", "random", 500, 0.0),   # converged from a nonzero x0
    (2, "zero", "random", 5, 0.0),       # budget exhausted
    (3, "random", "random", 4, 0.0),     # budget exhausted from a nonzero x0
    (4, "random", "zero", 500, 0.0),     # zero right-hand side
    (5, "zero", "random", 500, 1e-3),    # stopped by the floor, cold start
    (6, "random", "random", 500, 1e-3),  # stopped by the floor, warm start
    (7, "random", "random", 4, 1e-3),    # budget exhausted above the floor
    (8, "random", "random", 500, 1e-14),  # the floor below rtol ||b||
    (9, "random", "zero", 500, 1e-3),    # zero right-hand side
]


class TestPcg:
    @pytest.mark.parametrize(
        "seed,x0_kind,b_kind,maxiter,floor", PCG_CASES,
        ids=["-".join(map(str, c[:4])) + (f"-floor{c[4]:g}" if c[4] else "")
             for c in PCG_CASES])
    def test_matches_scipy_cg(self, seed, x0_kind, b_kind, maxiter, floor):
        n = 40
        a, jacobi, b = spd_system(n, seed)
        if b_kind == "zero":
            b = np.zeros(n)
        x0 = RNG(seed + 100).standard_normal(n) if x0_kind == "random" \
            else np.zeros(n)
        rtol = 1e-10

        def matvec(v):
            return a @ v

        def precondition(v):
            return v * jacobi

        shape = (n, n)
        steps = []
        ref, info = scipy.sparse.linalg.cg(
            scipy.sparse.linalg.LinearOperator(shape, matvec=matvec,
                                               dtype=float),
            b, x0=x0, rtol=rtol, atol=floor * np.linalg.norm(b - a @ x0),
            maxiter=maxiter,
            M=scipy.sparse.linalg.LinearOperator(shape, matvec=precondition,
                                                 dtype=float),
            callback=steps.append)
        x0_before = x0.copy()
        x, iterations, converged = _pcg(matvec, precondition, b, x0, rtol,
                                        maxiter, floor)
        assert np.array_equal(x0, x0_before)
        assert iterations == len(steps)
        assert converged == (info == 0)
        if maxiter < n:
            assert not converged and iterations == maxiter
        else:
            assert converged
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)
        if floor and b_kind == "random" and maxiter > n:
            # a floor above rtol ||b|| stops the CG early; one below, not
            binds = floor * np.linalg.norm(b - a @ x0) > rtol * \
                np.linalg.norm(b)
            unfloored = _pcg(matvec, precondition, b, x0, rtol, maxiter)[1]
            assert (iterations < unfloored) == binds


SUPPORTS = [((5, 5), 1), ((3,), 1), ((1, 3), 1), ((2, 4), 2), ((5, 5, 5), 1),
            ((7,), 1)]


class TestSmoothBlur:
    @pytest.mark.parametrize("support,channels", SUPPORTS)
    def test_equals_gaussian_filter(self, support, channels):
        f = RNG(7).standard_normal((3, channels) + support)
        ref = np.empty_like(f)
        for m in range(f.shape[0]):
            for c in range(channels):
                ref[m, c] = scipy.ndimage.gaussian_filter(f[m, c], sigma=0.8,
                                                          mode="wrap")
        np.testing.assert_array_equal(_blur_wrap(f, range(2, f.ndim)), ref)

    @pytest.mark.parametrize("support,channels", SUPPORTS)
    def test_smooth_bank_is_the_normalised_gaussian_filter(self, support,
                                                           channels):
        for seed in range(4):
            f = RNG(seed).standard_normal((3, channels) + support)
            for m in range(f.shape[0]):
                for c in range(channels):
                    f[m, c] = scipy.ndimage.gaussian_filter(f[m, c], 0.8,
                                                            mode="wrap")
                f[m] /= np.linalg.norm(f[m])
            bank = make_filters(support, 3, seed, channels=channels,
                                style="smooth")
            np.testing.assert_array_equal(bank.filters.reshape(f.shape), f)
