"""Cross-check of the hull-membership residual against HiGHS.

scipy is not a dependency of qcoord; this test runs only where it is
installed.  The reference program is built densely, pair by pair, by
``conftest.dense_hull_program``, independently of the column source the
classifier solves.
"""

import numpy as np
import pytest

from qcoord import check_classically_generated
from qcoord.tolerances import LP_TOL
from conftest import HULL_SHAPES, dense_hull_program, hull_case

linprog = pytest.importorskip("scipy.optimize").linprog


def test_hull_residuals_match_highs():
    rng = np.random.default_rng(2024)
    for index in range(152):
        kind = ("hidden", "deterministic", "chsh", "blend")[index % 4]
        n_out, n_phi, n_psi = HULL_SHAPES[int(rng.integers(len(HULL_SHAPES)))]
        dist, in_hull = hull_case(kind, rng, n_out, n_phi, n_psi)
        locality = check_classically_generated(dist)
        c, A, b = dense_hull_program(dist)
        reference = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert reference.status == 0
        assert abs(locality.residual - reference.fun) <= 1e-9, (kind, n_out, n_phi, n_psi)
        if in_hull:
            assert locality.feasible and locality.residual <= LP_TOL
        if in_hull is False:
            assert not locality.feasible
