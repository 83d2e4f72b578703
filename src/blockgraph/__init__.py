"""Block graphs of finite groups from exact character table arithmetic.

Computes p-block distributions of complex irreducible characters via the
central-character congruence, builds the graph on the primes dividing the
group order whose edges are shared nontrivial principal-block characters,
evaluates its solvability-related predicates, and provides the Lie-type
number theory (Zsigmondy primes, e_ell(q), regular numbers, generic
orders) that decides Steinberg principal-block membership.
"""

from .blocks import BlockPartition, CentralCharacter, block_partition, central_character, principal_block_rows
from .chartab import CharacterTable, ConjClass, load_table, parse_table, prime_divisors, print_table, validate
from .corpus import corpus_dir, corpus_names, load_corpus_table
from .cyclotomic import (
    Cyclotomic,
    cyc_add,
    cyc_div_by_int,
    cyc_make,
    cyc_mul,
    cyc_neg,
    cyclotomic_polynomial,
    parse_cyclotomic,
    zeta,
)
from .graph import (
    BlockGraph,
    SolvabilityReport,
    build_block_graph,
    export_dot,
    is_complete,
    solvability_criterion,
    triangles_containing,
)
from .lietype import (
    FAMILIES,
    GenericLieGroup,
    e_of,
    group_order,
    is_regular,
    lie_group,
    steinberg_in_principal_block,
    table2_row,
    zsigmondy,
    zsigmondy_prime_of_Te,
)
from .tablegen import PermGroup, dixon_table, enumerate_group

__version__ = "0.1.0"
