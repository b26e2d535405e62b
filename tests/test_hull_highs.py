"""Cross-check of the in-repo simplex against HiGHS on hull-membership programs.

scipy is not a dependency of qcoord; these tests run only where it is
installed.  Each program is the one ``signals._hull_membership`` builds, so
the comparison covers the exact matrices the classifier solves.
"""

import numpy as np
import pytest

from qcoord import check_classically_generated, signals
from qcoord.sampling import random_classical_signals
from qcoord.tolerances import LP_TOL
from conftest import chsh_embedded, joint_from_conditionals, stochastic_mixture

linprog = pytest.importorskip("scipy.optimize").linprog

# (signals per player, states of A, states of B) with at most 1024 hull vertices
SHAPES = [(2, f, w) for f in range(2, 6) for w in range(2, 6)] + [
    (3, f, w) for f in range(2, 5) for w in range(2, 5) if f + w <= 6
]


def _table(kind, rng, n_out, n_phi, n_psi):
    """A distribution of one construction kind, and whether it lies in the hull."""
    if kind == "hidden":
        return joint_from_conditionals(stochastic_mixture(rng, n_out, n_phi, n_psi), rng), True
    if kind == "deterministic":
        return random_classical_signals(rng, n_s=n_out, n_t=n_out, n_phi=n_phi, n_psi=n_psi,
                                        n_hidden=int(rng.integers(1, 5))), True
    if kind == "chsh":
        return joint_from_conditionals(chsh_embedded(rng, n_out, n_phi, n_psi), rng), False
    blend = 0.5 * chsh_embedded(rng, n_out, n_phi, n_psi) + 0.5 * stochastic_mixture(
        rng, n_out, n_phi, n_psi)
    return joint_from_conditionals(blend, rng), None


def test_hull_residuals_match_highs(monkeypatch):
    programs = []
    solve = signals.solve_lp

    def recording(c, A, b, **kwargs):
        programs.append((c, A, b))
        return solve(c, A, b, **kwargs)

    monkeypatch.setattr(signals, "solve_lp", recording)

    rng = np.random.default_rng(2024)
    for index in range(152):
        kind = ("hidden", "deterministic", "chsh", "blend")[index % 4]
        n_out, n_phi, n_psi = SHAPES[int(rng.integers(len(SHAPES)))]
        dist, in_hull = _table(kind, rng, n_out, n_phi, n_psi)
        locality = check_classically_generated(dist)
        c, A, b = programs[-1]
        reference = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert reference.status == 0
        assert abs(locality.residual - reference.fun) <= 1e-9, (kind, n_out, n_phi, n_psi)
        if in_hull:
            assert locality.feasible and locality.residual <= LP_TOL
        if in_hull is False:
            assert not locality.feasible
