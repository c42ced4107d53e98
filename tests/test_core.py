from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import partial_perm_pairs, partial_perms
from rookfft.core import (
    CanonicalFactorization,
    DimensionMismatch,
    ParseError,
    PartialPermutation,
    compose,
    enumerate_rn,
    factorize,
    generator_word,
    idempotent_on,
    ksubset_index,
    ksubsets,
    leq,
    mobius,
    order_preserving,
    parse_cycle_link,
    print_cycle_link,
    reassemble,
    restrictions,
    size,
    size_recursive,
)

PP = PartialPermutation


def pp(n, flat):
    return PP.from_flat(n, flat)


class TestCompose:
    def test_worked_example(self):
        pi = pp(4, "1->4;2->3")
        sigma = pp(4, "1->2;3->1")
        assert compose(pi, sigma) == pp(4, "1->3;3->4")

    def test_identity_is_neutral(self):
        for s in enumerate_rn(3):
            e = PP.identity(3)
            assert compose(e, s) == s
            assert compose(s, e) == s

    def test_reversed_composition(self):
        # brute-force the definition: x in dom(pi) with pi(x) in dom(sigma)
        pi = pp(4, "1->4;2->3")
        sigma = pp(4, "1->2;3->1")
        expected = {}
        for x in range(1, 5):
            if pi(x) is not None and sigma(pi(x)) is not None:
                expected[x] = sigma(pi(x))
        assert expected == {2: 1}
        assert compose(sigma, pi) == pp(4, "2->1")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(PP.identity(3), PP.identity(4))

    def test_operator_alias(self):
        s, t = pp(3, "1->2"), pp(3, "3->1")
        assert s * t == compose(s, t)


class TestInverse:
    def test_example(self):
        assert pp(4, "2->1;4->4").inverse() == pp(4, "1->2;4->4")

    def test_identity_and_zero(self):
        assert PP.identity(5).inverse() == PP.identity(5)
        assert PP.zero(5).inverse() == PP.zero(5)

    @pytest.mark.parametrize("n", range(5))
    def test_inverse_semigroup_laws(self, n):
        for s in enumerate_rn(n):
            g = s.inverse()
            assert compose(compose(s, g), s) == s
            assert compose(compose(g, s), g) == g
            assert g.dom() == s.ran()

    def test_uniqueness_on_r3(self):
        elems = enumerate_rn(3)
        for s in elems:
            found = [
                g
                for g in elems
                if compose(compose(s, g), s) == s and compose(compose(g, s), g) == g
            ]
            assert found == [s.inverse()]


class TestRankAndIdempotents:
    def test_rank_examples(self):
        assert pp(4, "2->1;4->4").rank == 2
        assert PP.identity(6).rank == 6
        assert PP.zero(4).rank == 0

    def test_idempotent_on(self):
        e = idempotent_on(4, [1, 3])
        assert compose(e, e) == e
        assert e == pp(4, "1->1;3->3")

    def test_idempotents_are_restricted_identities(self):
        for s in enumerate_rn(3):
            expected = s == PP.identity(3).restrict(s.dom())
            assert s.is_idempotent() == expected


class TestOrder:
    def test_zero_below_everything(self):
        for s in enumerate_rn(3):
            assert leq(PP.zero(3), s)
            assert leq(s, s)

    def test_examples(self):
        assert leq(pp(4, "2->1"), pp(4, "2->1;4->4"))
        assert not leq(pp(4, "2->3"), pp(4, "2->1;4->4"))

    @pytest.mark.parametrize("n", range(4))
    def test_agrees_with_idempotent_definition(self, n):
        elems = enumerate_rn(n)
        idems = [e for e in elems if e.is_idempotent()]
        for s in elems:
            for t in elems:
                by_idem = any(compose(e, t) == s for e in idems)
                assert leq(s, t) == by_idem

    def test_partial_order_axioms(self):
        elems = enumerate_rn(3)
        for s in elems:
            for t in elems:
                if leq(s, t) and leq(t, s):
                    assert s == t
                for u in elems:
                    if leq(s, t) and leq(t, u):
                        assert leq(s, u)


class TestMobius:
    def test_reflexive_value(self):
        for s in enumerate_rn(2):
            assert mobius(s, s) == 1

    def test_zero_to_identity_r2(self):
        assert mobius(PP.zero(2), PP.identity(2)) == 1

    def test_incomparable_is_zero(self):
        assert mobius(pp(2, "1->2"), pp(2, "1->1;2->2")) == 0

    def test_defining_identity_r3(self):
        # sum over the interval [s, t] vanishes whenever s < t
        elems = enumerate_rn(3)
        for t in elems:
            below = list(restrictions(t))
            for s in below:
                total = sum(mobius(s, x) for x in below if leq(s, x))
                assert total == (1 if s == t else 0)


class TestCounting:
    def test_known_sizes(self):
        assert [size(n) for n in range(7)] == [1, 2, 7, 34, 209, 1546, 13327]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_recursion_matches_sum(self, n):
        assert size(n) == size_recursive(n)

    @pytest.mark.parametrize("n", range(6))
    def test_enumeration(self, n):
        elems = enumerate_rn(n)
        assert len(elems) == size(n)
        assert len(set(elems)) == len(elems)


@st.composite
def _cycle_link_text(draw):
    """(n, text): cycles and links over a shuffle of 1..n, with junk mixed in."""
    n = draw(st.integers(0, 4))
    symbols = [str(p) for p in draw(st.permutations(range(1, n + 1)))]
    junk = ["0", "5", "-1", "", " 2 ", "x", "1_0", "²", "٣", "9" * 5000, "(", "]", "\n"]
    for i in draw(st.lists(st.integers(0, n), max_size=1)):
        symbols.insert(i, draw(st.sampled_from(junk + symbols[:1])))
    cuts = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=3)))
    groups = [symbols[a:b] for a, b in zip([0, *cuts], [*cuts, len(symbols)]) if a < b]
    text = "".join(draw(st.sampled_from(["({})", "[{}]"])).format(",".join(g)) for g in groups)
    return n, draw(st.sampled_from([text, text, text, draw(st.text(max_size=12))]))


class TestCycleLink:
    def test_worked_example(self):
        assert parse_cycle_link("[1,3,2](4)", 4) == pp(4, "1->3;3->2;4->4")

    def test_link_element(self):
        # (1)(2)...(n-1)[n]: identity off n, n unmapped
        for n in (2, 4):
            text = "".join(f"({j})" for j in range(1, n)) + f"[{n}]"
            expected = idempotent_on(n, range(1, n))
            assert parse_cycle_link(text, n) == expected

    def test_empty_is_error(self):
        with pytest.raises(ParseError):
            parse_cycle_link("", 2)

    def test_repeated_symbol_is_error(self):
        with pytest.raises(ParseError):
            parse_cycle_link("(1,2)[2]", 3)

    def test_out_of_range_is_error(self):
        with pytest.raises(ParseError):
            parse_cycle_link("(5)", 4)

    @given(case=_cycle_link_text())
    @example(case=(3, "(٣,1)"))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_text_parses_or_raises_parse_error(self, case):
        n, text = case
        try:
            s = parse_cycle_link(text, n)
        except ParseError:
            return
        assert not any(c.isdigit() and not c.isascii() for c in text)  # "٣" or "²" is refused
        assert isinstance(s, PP) and s.n == n
        assert parse_cycle_link(print_cycle_link(s), n) == s

    def test_canonical_form_layout(self):
        # cycles before links, blocks sorted by minimal element
        assert print_cycle_link(pp(4, "1->3;3->2;4->4")) == "(4)[1,3,2]"
        assert print_cycle_link(PP.zero(3)) == "[1][2][3]"
        assert print_cycle_link(PP.identity(3)) == "(1)(2)(3)"

    @pytest.mark.parametrize("n", range(5))
    def test_round_trip(self, n):
        for s in enumerate_rn(n):
            text = print_cycle_link(s)
            assert parse_cycle_link(text, n) == s
            assert print_cycle_link(parse_cycle_link(text, n)) == text


class TestFlatForm:
    @pytest.mark.parametrize("n", range(5))
    def test_round_trip(self, n):
        for s in enumerate_rn(n):
            assert PP.from_flat(n, s.to_flat()) == s

    def test_not_injective(self):
        with pytest.raises(ParseError):
            PP.from_flat(3, "2->1;3->1")

    def test_garbage(self):
        with pytest.raises(ParseError):
            PP.from_flat(3, "2=>1")

    @pytest.mark.parametrize("text", ["2->0", "1->0;1->2", "1->2;2->0", "1->4"])
    def test_image_point_outside_range(self, text):
        # 0 is not a point: "2->0" is no zero map, and "1->0;1->2" names 1 twice
        with pytest.raises(ParseError, match="image point"):
            PP.from_flat(3, text)

    def test_from_pairs_refuses_image_point_zero(self):
        with pytest.raises(ValueError, match="image point 0"):
            PP.from_pairs(2, [(1, 0)])


class TestFactorization:
    def test_order_preserving(self):
        assert order_preserving(5, {2, 5}, {1, 3}) == pp(5, "2->1;5->3")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            order_preserving(5, {1, 2}, {3})

    def test_identity(self):
        fact = factorize(PP.identity(4))
        assert fact.ran == (1, 2, 3, 4)
        assert fact.dom == (1, 2, 3, 4)
        assert fact.y == PP.identity(4)

    def test_example(self):
        fact = factorize(pp(4, "2->1;4->4"))
        assert fact.ran == (1, 4)
        assert fact.dom == (2, 4)
        assert fact.y == PP.identity(2)

    @pytest.mark.parametrize("n", range(5))
    def test_reassembly(self, n):
        for s in enumerate_rn(n):
            assert reassemble(factorize(s), n) == s


class TestSubsets:
    def test_first_subset_is_initial_segment(self):
        for n in range(6):
            for k in range(n + 1):
                subs = ksubsets(n, k)
                assert subs[0] == tuple(range(1, k + 1))
                assert [ksubset_index(a) for a in subs] == list(range(len(subs)))

    def test_colex_stable_under_growth(self):
        assert ksubsets(4, 2) == ksubsets(5, 2)[: len(ksubsets(4, 2))]


class TestGeneratorWord:
    @pytest.mark.parametrize("n", range(5))
    def test_word_reproduces_element(self, n):
        for s in enumerate_rn(n):
            cur = PP.identity(n)
            for kind, j in generator_word(s):
                if kind == "t":
                    g = PP(n, tuple(j if v == j - 1 else j - 1 if v == j else v for v in range(1, n + 1)))
                else:
                    g = idempotent_on(n, [p for p in range(1, n + 1) if p != j])
                cur = compose(cur, g)
            assert cur == s

    @pytest.mark.parametrize("n", range(1, 6))
    def test_full_rank_words_are_adjacent_transpositions(self, n):
        # an element of S_n is a full-rank element of R_n: its word holds
        # only t tokens, whose product rebuilds the permutation
        for w in permutations(range(1, n + 1)):
            word = generator_word(PP(n, w))
            assert {kind for kind, _ in word} <= {"t"}
            cur = tuple(range(1, n + 1))
            for _, j in word:  # cur ∘ t_j swaps the points j-1 and j
                cur = cur[: j - 2] + (cur[j - 1], cur[j - 2]) + cur[j:]
            assert cur == w


class TestMatrixView:
    def test_rook_matrix_multiplication_matches_composition(self):
        for s in enumerate_rn(2):
            for t in enumerate_rn(2):
                assert np.array_equal(
                    s.as_matrix() @ t.as_matrix(), compose(s, t).as_matrix()
                )


@given(partial_perm_pairs(max_n=4))
@settings(max_examples=150)
def test_compose_respects_definition(pair):
    s, t = pair
    st = compose(s, t)
    for x in range(1, s.n + 1):
        if t(x) is not None and s(t(x)) is not None:
            assert st(x) == s(t(x))
        else:
            assert st(x) is None


@given(partial_perms(max_n=5))
@settings(max_examples=150)
def test_inverse_is_involution(s):
    assert s.inverse().inverse() == s


@given(partial_perms(max_n=5))
@settings(max_examples=150)
def test_text_forms_round_trip(s):
    assert PartialPermutation.from_flat(s.n, s.to_flat()) == s
    if s.n > 0:
        assert parse_cycle_link(print_cycle_link(s), s.n) == s
