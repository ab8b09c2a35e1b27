import itertools
import json
from fractions import Fraction
from math import lcm

import pytest

from blockzeta import cli
from blockzeta.bigreal import BigReal, bits_for_digits
from blockzeta.identities import (
    compute_Lk,
    cyclic_sum,
    gen_bbbl,
    gen_composition_sums,
    gen_cyclic_full,
    gen_hoffman,
)
from blockzeta.linalg import MERSENNE_61, rank_certificate, rank_of
from blockzeta.lincomb import LinComb, PiRational
from blockzeta.numerics import eval_mzv
from blockzeta.rank import (
    _basis_index,
    altodd_rows,
    basis_compositions,
    cyclic_family,
    cyclic_rows,
    duality_rows,
    identity_vector,
    relation_rows,
    table_row,
    vectorize,
    zagier_dim,
)
from blockzeta.regalgebra import (
    regularise,
    stuffle_depth1,
    zeta_even_coeff,
    zeta_two_power,
)
from blockzeta.words import (
    ONE,
    BlockDecomposition,
    ZetaComposition,
    convergent_words,
    word,
    word_of,
    word_to_mzv,
    zc,
)


def _bareiss_rank(rows):
    """Exact rank by fraction-free (Bareiss) elimination over the integers.

    The oracle for the modular `rank_of`.
    """
    mat = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        r = [int(x * den) for x in row]
        if any(r):
            mat.append(r)
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev_piv = 1
    row = 0
    for col in range(n_cols):
        piv_row = next((i for i in range(row, n_rows) if mat[i][col]), None)
        if piv_row is None:
            continue
        mat[row], mat[piv_row] = mat[piv_row], mat[row]
        piv = mat[row][col]
        for i in range(row + 1, n_rows):
            if not any(mat[i][col:]):
                continue
            factor = mat[i][col]
            for j in range(col, n_cols):
                mat[i][j] = (mat[i][j] * piv - factor * mat[row][j]) // prev_piv
        prev_piv = piv
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _reference_cyclic_row(lengths, N):
    """Full cyclic-insertion row derived on its own: the oracle for cyclic_rows.

    Writes (-1)^k A_k = (-1)^k 2^(2k+1)/(2k+2) zeta({2}^k) as r zeta(2k)
    and expands each correction r zeta(2k) reg(I_bl(m)) by the depth-1
    stuffle, without going through the identity generator.
    """
    lengths = tuple(lengths)
    index = _basis_index(N)
    head = cyclic_sum(lengths)
    if N % 2 == 0:  # I_bl(N+2) is trivial at odd N
        head = head - LinComb.term(word_of(BlockDecomposition(0, (N + 2,))), 1)
    vec = vectorize(head, N)
    for k in range(1, len(lengths) // 2 + 1):
        ms = compute_Lk(lengths, 2 * k)
        if not ms:
            continue
        r = (
            Fraction((-1) ** k * 2 ** (2 * k + 1), 2 * k + 2)
            * zeta_two_power(k).coeff
            / zeta_even_coeff(k).coeff
        )
        for m in ms:
            if m:
                inner = regularise(LinComb.term(word_of(BlockDecomposition(0, m)), 1))
            else:
                inner = LinComb.term(ONE)
            for comp, coeff in inner.items():
                assert not coeff.pi_exp
                if comp is ONE or not comp.args:
                    resolved = LinComb.term(ZetaComposition((2 * k,)))
                else:
                    resolved = stuffle_depth1(2 * k, comp)
                for out_comp, c2 in resolved.items():
                    vec[index[out_comp]] += r * coeff.coeff * c2.coeff
    return vec


def _value(vec, N, digits):
    """The value of sum vec_i zeta(basis_i), to the given digits."""
    acc = BigReal.exact_zero(bits_for_digits(digits))
    for c, comp in zip(vec, basis_compositions(N)):
        if c:
            acc = acc + eval_mzv(comp, digits).mul_fraction(c)
    return acc


@pytest.fixture(scope="module")
def weight_rows():
    """(cyclic, alt-odd, duality) rows for N = 2..9."""
    return {N: (cyclic_rows(N), altodd_rows(N), duality_rows(N)) for N in range(2, 10)}


class TestZagierDim:
    def test_values(self):
        assert [zagier_dim(n) for n in range(14)] == [
            1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12, 16,
        ]

    def test_table_cross_check(self):
        assert 2**11 - zagier_dim(13) == 2032
        assert [2 ** (N - 2) - zagier_dim(N) for N in range(4, 9)] == [3, 6, 14, 29, 60]


class TestBasis:
    def test_ordering_deterministic(self):
        basis = basis_compositions(5)
        assert len(basis) == 8
        words = [str(w) for w in convergent_words(5)]
        assert words == sorted(words)  # binary-integer order

    def test_vectorize_duality_relation(self):
        # zeta(4) - zeta(1,1,2): exactly two entries, +1 and -1
        w = word("010001")
        comp, _ = word_to_mzv(w)
        dcomp, _ = word_to_mzv(w.dual())
        assert comp == zc(4) and dcomp == zc(1, 1, 2)
        vec = vectorize(LinComb.term(zc(4)) - LinComb.term(zc(1, 1, 2)), 4)
        assert sorted(vec) == [-1, 0, 0, 1]

    def test_zero_identity(self):
        assert not any(vectorize(LinComb.zero(), 4))

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vectorize(LinComb.term(zc(4)), 6)

    def test_pi_term_of_wrong_weight_rejected(self):
        # pi^2 zeta(3) has weight 5
        comb = LinComb.term(zc(2, 4)) + LinComb.term(zc(3), PiRational(1, 2))
        with pytest.raises(ValueError, match="weight 5 term in weight-6"):
            vectorize(comb, 6)

    def test_divergent_composition_rejected(self):
        # regularisation rejects it, with ValueError rather than a column lookup
        with pytest.raises(ValueError, match="non-convergent composition z\\(2,1\\)"):
            vectorize(LinComb.term(zc(2, 1)), 3)

    def test_bare_constant_rejected(self):
        # the empty composition is the one weight-0 basis element
        with pytest.raises(ValueError, match="constant term in a weight-0"):
            vectorize(LinComb.term(ONE, 3), 0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bare_pi_power_is_the_unit_vector_at_zeta_2k(self, k):
        expect = [Fraction(0)] * len(_basis_index(2 * k))
        expect[_basis_index(2 * k)[zc(2 * k)]] = 1 / zeta_even_coeff(k).coeff
        assert vectorize(LinComb.term(ONE, PiRational(1, 2 * k)), 2 * k) == expect

    def test_pi_power_is_a_zeta_multiple(self):
        # pi^4 = 90 zeta(4); pi^2 zeta(3) = 6 (zeta(2,3) + zeta(3,2) + zeta(5))
        vec = vectorize(LinComb.term(ONE, PiRational(1, 4)), 4)
        assert vec[_basis_index(4)[zc(4)]] == 90 and sum(vec) == 90
        vec = vectorize(LinComb.term(zc(3), PiRational(1, 2)), 5)
        index = _basis_index(5)
        assert {index[c] for c in (zc(2, 3), zc(3, 2), zc(5))} == {
            j for j, x in enumerate(vec) if x
        }
        assert all(vec[index[c]] == 6 for c in (zc(2, 3), zc(3, 2), zc(5)))

    @pytest.mark.parametrize(
        "ident",
        [
            gen_bbbl((0, 0, 0)),
            gen_bbbl((1, 0, 0)),
            gen_hoffman(0, 0, 0),
            gen_hoffman(1, 0, 1),
            gen_composition_sums("bowman-bradley", m=2, n=1),
            gen_cyclic_full((1, 1, 2, 2, 2)),
        ],
        ids=lambda ident: f"{ident.family}{tuple(ident.params.values())}",
    )
    def test_identity_vector_vanishes(self, ident):
        # pi^N right-hand sides included
        vec = identity_vector(ident)
        assert any(vec)
        assert _value(vec, ident.weight, 30).abs_at_most(Fraction(1, 10**25))


class TestRankOf:
    def test_empty(self):
        assert rank_of([]) == 0

    @pytest.mark.parametrize(
        "rows",
        [[[1], [1, 2]], [[1, 2], [1]], [[0], [1, 2]]],
        ids=["short-first", "long-first", "zero-row"],
    )
    def test_ragged_rows_rejected(self, rows):
        # checked before zero rows are dropped, so a short zero row counts too
        with pytest.raises(ValueError, match="rows differ in length"):
            rank_of(_frac_rows(rows))

    def test_duplicates_do_not_count(self):
        row = [Fraction(1), Fraction(2)]
        assert rank_of([row, row, [Fraction(2), Fraction(4)]]) == 1

    def test_simple(self):
        rows = [
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(1), Fraction(2)],
        ]
        assert rank_of(rows) == 2

    def test_certificate_is_exact(self):
        rows = _frac_rows([[1, 0, 1, 2], [0, 1, 1, 3], [1, 1, 2, 5], [2, 1, 3, 7], [0, 0, 0, 0]])
        cert = rank_certificate(rows)
        assert cert.rank == 2 and not cert.transposed
        assert cert.primes == (MERSENNE_61,) and cert.rejected == ()
        assert len(cert.kernel) == 4 - cert.rank
        ints = [[int(x) for x in row] for row in rows]
        for vec in cert.kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in ints)

    def test_transposed_kernel_relates_rows(self):
        # fewer rows than columns: the kernel is a relation among the rows
        rows = _frac_rows([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 0, 1, 0]])
        cert = rank_certificate(rows)
        assert cert.rank == 2 and cert.transposed
        (vec,) = cert.kernel
        combo = [sum(c * row[j] for c, row in zip(vec, rows)) for j in range(5)]
        assert not any(combo)

    def test_bad_first_prime_is_rejected(self):
        # the determinant is 2^61 - 1, so the rank drops mod the first prime
        rows = _frac_rows([[1, 1], [1, 1 + MERSENNE_61]])
        cert = rank_certificate(rows)
        assert cert.rank == 2 == _bareiss_rank(rows)
        assert cert.rejected == (MERSENNE_61,)
        assert len(cert.primes) == 1 and cert.primes[0] < MERSENNE_61

    def test_later_pivots_are_replaced(self):
        # the first column vanishes mod 2^61 - 1 but the rank does not drop;
        # the kernel vector (-1, p) only fits the pivots over Q
        p = MERSENNE_61
        rows = _frac_rows([[p, 1], [2 * p, 2], [3 * p, 3]])
        cert = rank_certificate(rows)
        assert cert.rank == 1 == _bareiss_rank(rows)
        assert cert.pivots == (0,) and MERSENNE_61 in cert.rejected
        (vec,) = cert.kernel
        assert vec[1] == -p * vec[0]

    def test_reconstruction_needs_several_primes(self):
        # the echelon entry 5^30 / 3^40 needs a modulus above 2^134
        a, b = 3**40, 5**30
        rows = _frac_rows([[a, b], [2 * a, 2 * b], [-a, -b]])
        cert = rank_certificate(rows)
        assert cert.rank == 1 == _bareiss_rank(rows)
        assert len(cert.primes) >= 3 and cert.rejected == ()
        (vec,) = cert.kernel
        assert a * vec[0] + b * vec[1] == 0

    def test_large_denominators(self):
        den = 10**40 + 7
        r1 = [Fraction(1, den), Fraction(3, 7), Fraction(-5, den * 11), Fraction(0)]
        r2 = [Fraction(2), Fraction(1, den**2), Fraction(0), Fraction(9, 13)]
        x, y = Fraction(den + 2, 3**50), Fraction(-(2**70), den)
        r3 = [x * a + y * b for a, b in zip(r1, r2)]
        rows = [r1, r2, r3, [Fraction(0)] * 4]
        assert rank_of(rows) == 2 == _bareiss_rank(rows)
        rows.append([Fraction(1, den**3), Fraction(0), Fraction(1), Fraction(0)])
        assert rank_of(rows) == 3 == _bareiss_rank(rows)

    def test_input_rows_untouched(self):
        rows = _frac_rows([[1, 2], [2, 4]])
        rank_of(rows)
        assert rows == _frac_rows([[1, 2], [2, 4]])

    def test_agrees_with_bareiss_on_the_table(self, weight_rows):
        for N, (cyc, alt, dual) in weight_rows.items():
            for rows in (cyc, alt, dual, cyc + alt + dual):
                assert rank_of(rows) == _bareiss_rank(rows), N


def _reference_duality_rows(N):
    """The duality rows built by hand: +1 at zeta(w), -1 at zeta(dual w)."""
    index = _basis_index(N)
    rows = []
    for w in convergent_words(N):
        if w.dual() == w:
            continue
        vec = [Fraction(0)] * len(index)
        vec[index[word_to_mzv(w)[0]]] += 1
        vec[index[word_to_mzv(w.dual())[0]]] -= 1
        rows.append(vec)
    return rows


class TestDuality:
    @pytest.mark.parametrize("N", range(2, 12))
    def test_rows_match_the_hand_built_rows(self, N):
        assert duality_rows(N) == _reference_duality_rows(N)

    def test_counts_closed_form(self):
        for N in range(4, 13):
            rows = duality_rows(N)
            if N % 2 == 0:
                assert len(rows) == 2 ** (N - 2) - 2 ** (N // 2 - 1)
            else:
                assert len(rows) == 2 ** (N - 2)

    def test_rank_is_half_init(self):
        for N in range(4, 9):
            rows = duality_rows(N)
            assert rank_of(rows) == len(rows) // 2

    def test_paper_columns(self):
        expect = {4: (2, 1), 5: (8, 4), 6: (12, 6), 7: (32, 16), 8: (56, 28)}
        for N, (init, rank) in expect.items():
            rows = duality_rows(N)
            assert (len(rows), rank_of(rows)) == (init, rank)


class TestCyclicFamily:
    def test_init_counts(self):
        # N=5 enumerates 6 classes: parts n >= 3 of the valid parity,
        # modulo rotation (the reference table lists 7 there; its pruning
        # of "duplicate" relations is unspecified)
        assert [len(cyclic_family(N)) for N in range(4, 9)] == [5, 6, 15, 25, 51]

    def test_brute_force_necklaces(self):
        # n - 1 cut points in 1..N+1 give each composition of N+2 into n
        # parts; a necklace is kept as its least rotation, listed by block
        # count, then in lex order
        for N in range(2, 11):
            necklaces = set()
            for n in range(3, N + 3):
                if (N - n) % 2 == 0:
                    continue  # trivial decompositions
                for cuts in itertools.combinations(range(1, N + 2), n - 1):
                    ends = (0, *cuts, N + 2)
                    comp = tuple(b - a for a, b in itertools.pairwise(ends))
                    necklaces.add(min(comp[i:] + comp[:i] for i in range(n)))
            assert cyclic_family(N) == sorted(necklaces, key=lambda c: (len(c), c)), N

    def test_rows_numerically_true(self, weight_rows):
        digits = 30
        for N in (4, 5, 6, 7):
            for vec in weight_rows[N][0]:
                assert _value(vec, N, digits).abs_at_most(Fraction(1, 10 ** (digits - 5)))

    def test_rows_match_the_reference_derivation(self, weight_rows):
        for N, (cyc, _, _) in weight_rows.items():
            assert cyc == [_reference_cyclic_row(c, N) for c in cyclic_family(N)], N

    def test_rank_bound(self, weight_rows):
        # valid relations never exceed the expected rank, up to weight 9
        for N in range(4, 10):
            cyc, alt, dual = weight_rows[N]
            assert rank_of(cyc + alt + dual) <= 2 ** (N - 2) - zagier_dim(N)


class TestTableRows:
    def test_row_n4(self):
        row = table_row(4)
        assert row.families["cyclic"] == (5, 3)
        assert row.families["duality"] == (2, 1)
        assert row.overall == 3 and row.expected == 3

    def test_row_n6(self):
        row = table_row(6)
        assert row.families["cyclic"] == (15, 13)
        assert row.families["duality"] == (12, 6)
        assert row.overall == 13 and row.expected == 14

    def test_overall_order_independent(self):
        N = 6
        rows_a = cyclic_rows(N) + duality_rows(N) + altodd_rows(N)
        rows_b = altodd_rows(N) + duality_rows(N) + cyclic_rows(N)
        assert rank_of(rows_a) == rank_of(rows_b)

    def test_bad_arguments_rejected(self):
        for N in (1, 0, -1):
            with pytest.raises(ValueError, match="weight"):
                table_row(N)
        for families in (("nope",), ("cyclic", ""), ("cyclic", "Duality")):
            with pytest.raises(ValueError, match="unknown family"):
                table_row(5, families)
        with pytest.raises(ValueError, match="weight"):
            relation_rows(1, ("duality",))

    def test_matrix_basis_is_a_copy(self, capsys):
        # the basis `rank --matrix` prints never aliases the cached _basis_index
        basis_compositions(5).clear()
        assert len(basis_compositions(5)) == 8 == len(_basis_index(5))
        assert cli.run(["rank", "--weight", "5", "--families", "duality", "--matrix"]) == 0
        printed = json.loads(capsys.readouterr().out)["basis"]
        assert printed == [str(c) for c in _basis_index(5)] and len(printed) == 8

    def test_adding_duality_never_decreases(self):
        for N in (4, 5, 6):
            cyc = cyclic_rows(N)
            assert rank_of(cyc + duality_rows(N)) >= rank_of(cyc)
