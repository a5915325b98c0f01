"""wml: exact word measures on wreath products G wr S_n.

A word w in a free group pushes the uniform measure forward to any compact
group; for the wreath products G wr S_n the expected value of the natural
induced characters is an exact rational function of n.  This package
computes that function symbolically over the lattice of Stallings-graph
quotients, extracts the word invariants governing its decay (the
phi-primitivity rank, the critical subgroups and the critical value), and
verifies everything against brute-force enumeration over small explicit
groups.
"""

from .budget import BudgetError, InvariantError, ValidationError
from .characters import (
    CharacterSpec,
    ClassFunction,
    FiniteGroup,
    builtin_group,
    expectation_rel,
    expectation_word,
    inner_product,
    symmetric_std_character,
)
from .core_graphs import (
    CoreGraph,
    GraphMorphism,
    QuotientPoset,
    SubgroupBasis,
    bouquet,
    enumerate_quotients,
    fold,
    graph_of_subgroup,
    graph_of_word,
    morphism,
    rewrite_in_subgroup,
    spanning_tree_basis,
)
from .cyclotomic import Cyclotomic
from .mobius import (
    L_B,
    L_general,
    LetterDistribution,
    PermAction,
    expectation_action,
)
from .oracle import (
    ExplicitWreath,
    SampleEstimate,
    brute_expectation,
    build_iterated_wreath,
    build_wreath,
    expectation_from_counts,
    injective_orbit_count,
    iterated_ind_character,
    monte_carlo_expectation,
    orbit_count,
    word_element_counts,
)
from .rational import Poly, RationalFunctionN
from .words import (
    CyclicWord,
    WhiteheadAut,
    Word,
    apply_whitehead,
    cyclic_reduce,
    is_primitive,
    lies_in_proper_free_factor,
    parse_word,
    parse_words,
    reduce,
    whitehead_minimize,
)
from .wreath_measures import (
    IteratedExpectation,
    IteratedSpec,
    LaurentLeading,
    TreeFixReport,
    WitnessReport,
    WordContext,
    action_decay_bound_check,
    torsion_letter_expectation,
    chi_expectation_at,
    chi_expectation_symbolic,
    general_action_expectation,
    ind_expectation_at,
    ind_expectation_symbolic,
    iterated_expectation,
    iterated_value_at,
    leading_term,
    p_group_bound_check,
    pi_phi,
    pi_std_profile,
    tree_dimension_identity,
    tree_fix_expectation,
    witness_report,
)

__version__ = "0.1.0"
