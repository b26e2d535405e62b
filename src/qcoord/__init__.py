"""Coordination games with shared quantum states.

Computes classical values by exact enumeration, quantum values by
lower-bound optimization over measurement strategies on a shared entangled
state, verifies numerically that measurement choices cannot signal, and
classifies joint signal distributions as Signalling, ClassicallyGenerated
or Entangled via linear programming over the local deterministic hull.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetCapExceeded,
    DimensionCapExceeded,
    DimensionMismatch,
    EnumerationCapExceeded,
    IncompatibleLabels,
    InvalidConfig,
    NonBinaryActions,
    NotDisjoint,
    NotStateConsistent,
    ParseError,
    PayoffDependsOnPsi,
    QcoordError,
    ShapeMismatch,
    SolverLimitReached,
    ValidationError,
    ZeroVector,
)
from .games import (
    BehaviorTable,
    ClassicalSolution,
    Game,
    chsh_game,
    classical_value,
    expected_payoff,
    phi_only_game,
)
from .quantum import (
    DensityMatrix,
    Measurement,
    MeasurementFamily,
    NoSignallingReport,
    angle_family,
    joint_distribution,
    maximally_mixed,
    no_signalling_check,
    projective_pair,
    pure_state,
    singlet_state,
)
from .signals import (
    CheckResult,
    ClassificationResult,
    JointSignalDistribution,
    LocalityResult,
    Theorem2Report,
    Verdict,
    check_disjoint,
    check_state_consistent,
    classify,
    distribution_from_quantum,
    expected_signal_payoff,
    theorem2_transform,
    verify_theorem2,
)
from .strategies import (
    OptimizerConfig,
    QuantumStrategyProfile,
    QubitAngleStrategy,
    behavior_from_profile,
    chsh_reference_strategy,
    evaluate_qubit_strategy,
    optimize_angles,
    seesaw_optimize,
)
