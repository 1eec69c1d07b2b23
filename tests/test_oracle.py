"""Numeric oracles: dense exponential, probes, reports."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from almostabelian.jordan import algebra_element
from almostabelian.numeric import group_rep_numeric, phi_numeric
from almostabelian.oracle import (
    OracleReport,
    antihermitian_probe,
    dense_expm,
    exp_crosscheck,
    injectivity_probe,
)
from almostabelian.oracle import _chebyshev_gaps, _hypotheses_hold
from almostabelian.reps import algebra_rep

SEED = 0x5EED


class TestDenseExpm:
    def test_zero_to_identity(self):
        out = dense_expm(np.zeros((4, 4)))
        assert np.allclose(out, np.eye(4), atol=1e-15)

    def test_diagonal(self):
        out = dense_expm(np.diag([1.0, 2.0]))
        expected = np.array([math.e, math.e**2])
        assert np.max(np.abs(np.diag(out) / expected - 1.0)) < 1e-12
        assert abs(out[0, 1]) == 0.0 and abs(out[1, 0]) == 0.0

    def test_matches_closed_form(self, heis):
        x = algebra_element(heis, (1, 2), 3)
        dense = dense_expm(algebra_rep(heis, x).numeric())
        closed = group_rep_numeric(heis, phi_numeric(heis, 3.0) @ np.array([1.0, 2.0]), 3.0, "G")
        assert np.max(np.abs(dense - closed)) < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dense_expm(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dense_expm(np.array([[0.0, np.inf], [0.0, 0.0]]))


class TestCrosscheck:
    @pytest.mark.parametrize("name", ["heis", "e2", "mix"])
    def test_fixtures_pass(self, name, request):
        aleph = request.getfixturevalue(name)
        report = exp_crosscheck(aleph, 100, seed=SEED)
        assert report.passed
        assert report.max_dev < 1e-9

    def test_deterministic(self, heis):
        assert exp_crosscheck(heis, 25, seed=SEED) == exp_crosscheck(heis, 25, seed=SEED)

    def test_report_line(self, heis):
        line = exp_crosscheck(heis, 10, seed=SEED).line()
        assert line.startswith("PASS exp_crosscheck max_dev=")
        assert float(line.split("=")[1]) < 1e-9


class TestAntihermitian:
    def test_probe_passes(self):
        report = antihermitian_probe(200, 6, seed=SEED)
        assert report.passed
        assert report.max_dev < 1e-8
        assert report.detail == "checked=200/200"

    def test_heisenberg_triple_excluded(self):
        # nilpotent pair with central commutator, but not anti-Hermitian
        x = np.zeros((3, 3), dtype=complex)
        y = np.zeros((3, 3), dtype=complex)
        x[0, 1] = 1.0
        y[1, 2] = 1.0
        z = x @ y - y @ x
        assert np.linalg.norm(z) > 0.5
        assert not _hypotheses_hold(x, y, z, 1e-10)

    def test_deterministic(self):
        assert antihermitian_probe(30, 5, seed=SEED) == antihermitian_probe(30, 5, seed=SEED)


class TestInjectivity:
    def test_exponential_fixtures(self, heis, aff):
        for aleph in (heis, aff):
            report = injectivity_probe(aleph, 200, seed=SEED)
            assert report.passed
            assert report.max_dev == 0.0

    def test_rotation_collision(self, e2):
        report = injectivity_probe(e2, 50, seed=SEED)
        assert report.passed
        assert report.max_dev < 1e-6
        assert "collision at t = tau" in report.detail

    def test_report_type(self, heis):
        assert isinstance(injectivity_probe(heis, 10, seed=SEED), OracleReport)

    def test_gaps_equal_scipy_chebyshev(self):
        points = np.random.default_rng(SEED).uniform(-3.0, 3.0, size=(40, 5))
        assert np.array_equal(_chebyshev_gaps(points), cdist(points, points, "chebyshev"))
