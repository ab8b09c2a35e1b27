"""blockzeta: alternating block decompositions of iterated integrals.

Symbolic generation of cyclic-insertion, Hoffman, alt-odd and 123-MZV
identity families, motivic derivation-kernel checks by pairwise
cancellation, arbitrary-precision numerical verification, and exact
rational rank tables for the resulting relation families.
"""

from types import ModuleType as _ModuleType

from .words import (
    BlockDecomposition,
    ParseError,
    Word,
    ZetaComposition,
    block_decompose,
    blocks,
    mzv_to_word,
    word,
    word_of,
    word_to_mzv,
    zc,
)
from .lincomb import LinComb, PiRational, TensorTerm
from .regalgebra import (
    regularise,
    regularise_word,
    shuffle_words,
    stuffle_depth1,
    zeta_even_coeff,
    zeta_two_power,
)
from .reflect import reflective_closure
from .derivation import (
    canonical_word,
    closure_comb,
    collapse_cyclic_rights,
    d_less_than_N,
    d_r,
    kernel_report,
)
from .identities import (
    Identity,
    Zeta123Form,
    compute_Lk,
    cyclic_sum,
    gen_altodd_even,
    gen_altodd_odd,
    gen_bbbl,
    gen_composition_sums,
    gen_cyc123,
    gen_cyclic_basic,
    gen_cyclic_full,
    gen_double_alt,
    gen_general_hoffman,
    gen_hoffman,
    gen_symmetric,
    gen_thm_2_7_1,
    gen_z13312_sym,
)
from .numerics import (
    eval_lincomb,
    eval_mzv,
    eval_word,
    recognize_rational,
    verify,
)
from .rank import (
    relation_rows,
    table_row,
    vectorize,
    zagier_dim,
)

__version__ = "0.1.0"

# the API names; the submodules that the imports above bind are left out
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
