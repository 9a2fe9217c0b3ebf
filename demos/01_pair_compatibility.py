"""Joint measurability of a noisy X/Z pair, three ways.

Sweeps the visibility through the compatibility threshold and shows the three
available decision routes: the closed-form pair criterion, the explicit
four-outcome parent measurement, and the general feasibility search, which
returns a parent below the threshold and an exactly verified incompatibility
witness above it.
"""

import math

import numpy as np

from incompat import busch_pair_criterion, jm_feasibility, mother_povm_xz, pauli_set

threshold = 1 / math.sqrt(2)
print(f"pair compatibility threshold: eta = 1/sqrt(2) = {threshold:.6f}\n")

# The margin of the norm criterion is positive below threshold, zero at it,
# and negative above: the sign is the whole verdict.
print("eta     margin        pair criterion")
for eta in (0.3, 0.5, 0.6, threshold, 0.75, 0.9):
    pair = pauli_set("xz", eta)
    is_jm, margin = busch_pair_criterion(pair[0], pair[1])
    print(f"{eta:.4f}  {margin:+.6f}    {'compatible' if is_jm else 'incompatible'}")

# Below threshold the compatibility is witnessed constructively: the
# four-outcome parent marginalises exactly onto both noisy measurements.
eta = 0.6
mother = mother_povm_xz(eta)
pair = pauli_set("xz", eta)
print(f"\nparent POVM at eta = {eta}:")
print("  completeness error:", mother.completeness_error())
print("  reconstruction error vs pair:", mother.reconstruction_error(pair))
print("  smallest effect eigenvalue:", mother.min_eigenvalue())

# The feasibility search finds a parent without knowing the closed form.
verdict = jm_feasibility(pair)
print("\nfeasibility search:", verdict.status, f"({verdict.iterations} iterations)")
print("  search parent reconstruction error:", verdict.mother.reconstruction_error(pair))

# Above threshold the search finds the gap between the positivity cones and
# the marginal constraints instead: a dual witness with every block positive
# semidefinite and a negative value, re-checked in exact arithmetic.
pair = pauli_set("xz", 0.8)
verdict = jm_feasibility(pair)
print(f"\nat eta = 0.80: {verdict.status} ({verdict.reason},",
      f"{verdict.iterations} iterations)")
print(f"  witness value tr(Z) + sum_y tr(F_y B_0|y) = {verdict.witness.value:.6f} < 0")
print("  re-verified exactly:", verdict.witness.verify(pair))
