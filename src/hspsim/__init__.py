"""Exact simulation of hidden-subgroup quantum algorithms over Z_{m^k}^n.

The package has three layers: exact integer-lattice algebra for representing
subgroups (`lattice`), a sparse quantum-state simulator with cyclotomic
amplitudes (`cyclotomic`, `state`), and the algorithms built on them -- the
exact hidden-subgroup solver (`hsp`), the gcd-preserving combiner (`gcdcomb`)
and structure computations in black-box groups (`groups`, `blackbox`).
"""

from .blackbox import (
    BadOrder,
    BlackboxContext,
    NotSolvable,
    PolycyclicSeries,
    Presentation,
    abelian_factor_decomposition,
    abelian_presentation,
    build_group_superposition,
    build_polycyclic_series,
    derived_series,
    exact_swap_test,
    extend_superposition,
    group_order,
    superposition_membership,
)
from .cyclotomic import Cyclotomic, CycloField, cyclotomic_normalize, cyclotomic_polynomial
from .gcdcomb import combine_many, combine_pair
from .groups import (
    BadOrderError,
    GroupArith,
    GroupBackend,
    NotAGroupError,
    PermutationBackend,
    TableBackend,
    UnitsBackend,
    load_group,
)
from .hsp import (
    HidingOracle,
    HspResult,
    QueryStats,
    RoundTrace,
    build_coset_oracle,
    fourier_sample,
    hsp_round,
    solve_hsp,
    solve_hsp_zmn,
    verify_hidden,
)
from .lattice import (
    AbelianDecomposition,
    IntMatrix,
    SubgroupRep,
    contains_element,
    coset_element,
    enumerate_elements,
    equal_or_witness,
    full_subgroup,
    hermite_normal_form,
    invariant_factor_decomposition,
    join,
    lift_by_m,
    pairing_fibers,
    perp_subgroup,
    section_map,
    smith_normal_form,
    subgroup_from_generators,
    subgroup_order,
    trivial_subgroup,
)
from .state import (
    Circuit,
    Register,
    RegisterLayout,
    SparseState,
    StatePrep,
    amplitude_amplify,
    apply_classical_map,
    apply_hadamard,
    apply_qft,
    conditional_phase_i,
    factor_split,
    make_backend,
    measure_register,
    prepare_basis,
    prepare_zero,
    states_close,
    states_equal,
    tensor,
)

__version__ = "0.1.0"
