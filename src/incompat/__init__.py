"""Certify (or refute certifiability of) qubit measurement incompatibility in
prepare-and-measure and Bell scenarios."""

__version__ = "0.1.0"

from .qcore import (
    Assemblage,
    DichotomicMeasurement,
    Ensemble,
    QubitOperator,
    QubitState,
    TwoQubitOperator,
    apply_white_noise,
    born_bell_phi_plus,
    born_pm,
    max_entangled_2,
    operator_norm,
    transpose,
    validate,
)
from .jm import (
    JMVerdict,
    JMWitness,
    MotherPOVM,
    busch_pair_criterion,
    jm_feasibility,
    mother_povm_xz,
    noisy_pauli_triple_jm,
)
from .correlations import (
    BehaviorTable,
    CorrelatorTable,
    bell_behavior_phi_plus,
    from_correlators,
    phi_plus_correlator,
    pm_behavior,
    pm_correlators,
    to_correlators,
)
from .polytope import (
    BellPolytope,
    EnumerationBudgetError,
    MembershipVerdict,
    PMPolytope,
    PMStrategy,
    SignAssignment,
    Witness,
    bell_lmo,
    brute_force_membership,
    enumerate_pm_strategies,
    enumerate_sign_assignments,
    fw_membership,
    pm_lmo,
)
from .pmbell import (
    BellCertificate,
    CertificationReport,
    certify_incompatibility,
    check_correlator_equality,
    double_ensemble,
    map_pm_witness_to_bell,
    seesaw_ensemble_search,
    states_to_measurements,
)
from .chsh import (
    bell_jm_certified,
    chsh_norm_bound,
    chsh_operator,
    optimal_alice_settings,
)
from .gallery import (
    constants,
    pauli_eigenstate_ensemble,
    pauli_set,
    planar_set,
    snub_cube_directions,
    snub_cube_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
