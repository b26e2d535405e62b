"""Numerical tolerances and size caps used throughout the package.

Double precision on matrices of dimension at most 64 keeps rounding error
orders of magnitude below these thresholds, so a violation indicates a
genuinely invalid input rather than floating noise.
"""

from __future__ import annotations

from dataclasses import dataclass

TOL_HERM = 1e-9
TOL_TRACE = 1e-9
TOL_POVM = 1e-9
TOL_PSD = 1e-9
TOL_PROB = 1e-9
TOL_NOSIG = 1e-10
DISJOINT_TOL = 1e-9
LP_TOL = 1e-8
MASS_FLOOR = 1e-12
THEOREM2_TOL = 1e-10

DIM_CAP = 64
ENUMERATION_CAP = 10**7
VERTEX_CAP = 10**5


@dataclass(frozen=True)
class ToleranceProfile:
    """Pass/fail thresholds used when reporting check results."""

    name: str
    nosig: float = TOL_NOSIG
    disjoint: float = DISJOINT_TOL
    lp: float = LP_TOL
    prob: float = TOL_PROB
    theorem2: float = THEOREM2_TOL


DEFAULT_PROFILE = ToleranceProfile("default")

# "strict" tightens each profile threshold tenfold; demo's checks against the
# paper's values (1e-15, 1e-10, 1e-6) are fixed acceptance thresholds.  The
# values are literals because 1e-10 / 10 is 1.0000000000000001e-11, which
# --json would print.
STRICT_PROFILE = ToleranceProfile(
    "strict",
    nosig=1e-11,
    disjoint=1e-10,
    lp=1e-9,
    prob=1e-10,
    theorem2=1e-11,
)

PROFILES = {p.name: p for p in (DEFAULT_PROFILE, STRICT_PROFILE)}
