import itertools
import random
from collections import defaultdict
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from nanowords import (
    BUILTIN_NAMES,
    Alphabet,
    AlphabetMismatch,
    CanonicalForm,
    LiftedAlphabet,
    MoveSystem,
    NanowordError,
    Nanophrase,
    NonGraphR,
    PiElement,
    SigmaVector,
    SoValue,
    apply_move,
    builtin_data,
    canonical_form,
    check_conditions,
    clv_lifted,
    clv_phrase,
    diagonal_triples,
    enumerate_nanophrases,
    find_move_sites,
    lift_alphabet,
    lifted_invariants_applicable,
    lk_lifted,
    lk_phrase,
    phi,
    phrase_invariants_applicable,
    sigma_table,
    so_lifted,
    so_phrase,
    t_from_so,
    t_invariant,
)
from nanowords.invariants import (
    _REGISTRY,
    _census,
    _collapse,
    _interleaving,
    _lifted_parts,
    _phrase_parts,
    _pi_element,
    _profile_pass,
    _profile_vectors,
    _rank_pattern,
    _reduced,
    _vector,
    _word_pairs,
    invariant_lines,
    key_reader,
    render_rows,
)
from nanowords.kernel import _expand
from conftest import grown_forms, ph


class TestPiGroup:
    def test_symbol_times_involution_is_identity(self):
        for name in ("curves", "links", "diagonal"):
            alpha = builtin_data(name).base_alphabet
            for s in alpha.symbols:
                x = PiElement.from_symbol(alpha, s)
                y = PiElement.from_symbol(alpha, alpha.tau(s))
                assert (x * y).is_identity

    def test_fixed_points_have_order_two(self):
        alpha = Alphabet(("a",))
        x = PiElement.from_symbol(alpha, "a")
        assert not x.is_identity
        assert (x * x).is_identity

    @given(st.lists(st.sampled_from(["a+", "a-", "b+", "b-"]), max_size=8),
           st.lists(st.sampled_from(["a+", "a-", "b+", "b-"]), max_size=8))
    def test_commutative_and_associative(self, xs, ys):
        alpha = builtin_data("links").base_alphabet

        def prod(symbols):
            acc = PiElement.identity(alpha)
            for s in symbols:
                acc = acc * PiElement.from_symbol(alpha, s)
            return acc

        assert prod(xs) * prod(ys) == prod(ys) * prod(xs)
        assert prod(xs + ys) == prod(xs) * prod(ys)

    def test_render(self):
        alpha = Alphabet(("a", "b"), {"a": "b"})
        x = PiElement.from_symbol(alpha, "a")
        assert x.render() == "a"
        assert (x * x).render() == "a^2"
        assert (x * x.inverse()).render() == "1"


class TestSigma:
    def test_free_orbit_signs(self, curves):
        p = ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        table = sigma_table(p, curves.base_moves)
        assert table[("A", "B", 1)] == (1, 1, 1)
        assert table[("B", "A", 1)] == (1, 1, -1)

    def test_nested_pairs_vanish(self, curves):
        p = ph(curves.base_alphabet, "AABB", {"A": "a", "B": "a"})
        assert sigma_table(p, curves.base_moves) == {}

    def test_fixed_orbit_collapses_signs(self, diagonal):
        p = ph(diagonal.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        table = sigma_table(p, diagonal.base_moves)
        assert table[("A", "B", 1)] == (1, 1, 1)
        assert table[("B", "A", 1)] == (1, 1, 1)

    def test_non_graph_r_rejected(self, one_symbol):
        moves = MoveSystem(one_symbol, q=("a",), r=(), s=())
        p = ph(one_symbol, "AA", {"A": "a"})
        with pytest.raises(NonGraphR):
            sigma_table(p, moves)

    @pytest.mark.parametrize("raw,entries,type_class", [
        ({}, (), None),
        ({(1, 1, 1): -2}, (((1, 1, 1), -2),), "i"),  # both orbits free: integers
        ({(1, 1, 2): -3, (1, 1, 1): 1}, (((1, 1, 1), 1), ((1, 1, 2), 1)), "i"),
        ({(1, 2, 1): 3, (1, 3, 3): 2}, (((1, 2, 1), 1),), "ii"),  # a fixed orbit: mod 2
        ({(1, 3, 1): 1, (1, 1, 3): 5}, (((1, 1, 3), 1), ((1, 3, 1), 1)), "iii"),
        ({(1, 1, 2): 4, (1, 2, 1): -2, (1, 3, 3): 6}, (), None),
    ])
    def test_build_reduces_entries_and_types_the_vector(self, raw, entries, type_class):
        # Orbit 1 is free and orbits 2 and 3 are fixed.  _collapse feeds
        # SigmaVector.build the summed entries of (vector, weight) pairs.
        vec = _collapse(1, [(SimpleNamespace(entries=tuple(raw.items())), 1)])
        assert (vec.entries, vec.type_class, vec.is_zero) == (entries, type_class, not entries)
        assert vec.render() == (" ".join(f"{j}:({p},{q}):{c}" for (j, p, q), c in entries)
                                or "0")


class TestSoPhrase:
    def test_free_orbit_buckets(self, curves):
        p = ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        so = so_phrase(p, curves.base_moves)
        assert len(so.maps) == 1
        (v1, c1), (v2, c2) = so.maps[0]
        assert c1 == 1 and c2 == 1
        assert {v1.entries, v2.entries} == {(((1, 1, 1), 1),), (((1, 1, 1), -1),)}

    def test_fixed_orbit_cancels_mod_two(self, diagonal):
        p = ph(diagonal.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        assert so_phrase(p, diagonal.base_moves).maps == ((),)

    def test_empty_phrase(self, curves):
        p = ph(curves.base_alphabet, "|", {})
        assert so_phrase(p, curves.base_moves).maps == ((), ())

    def test_census_leaves_out_zero_cancelled_and_cross_component_letters(self):
        # Hand-made pairs and records, so each case stands alone.  Orbit
        # 1 = {a, b} is free, orbit 2 = {c} fixed.  Letter 3 crosses the
        # components and meets 0, 1 and 2; letters 1 and 2 share the fixed
        # vector 2:(2,1):1, whose count 1 + 1 cancels mod 2; letter 4 has
        # the zero profile.  Only letter 0 is left.
        alpha = Alphabet(("a", "b", "c"), {"a": "b"})
        parts = [("a", 1, 1), ("c", 1, 1), ("c", 1, 1), ("a", 1, 2), ("b", 2, 2)]
        so = _census(alpha, 2, parts, (0, 3, 1, 3, 2, 3))
        assert so.maps == (((SigmaVector.build(1, {(2, 1, 1): 1}), 1),), ())
        # Apart, a fixed letter keeps its vector; moved into component 2,
        # letter 3 counts there.
        assert _census(alpha, 2, parts, (1, 3)).maps == (
            ((SigmaVector.build(1, {(2, 2, 1): 1}), 1),), ())
        parts[3] = ("a", 2, 2)
        assert _census(alpha, 2, parts, (0, 3)).maps == (
            ((SigmaVector.build(1, {(2, 1, 1): 1}), 1),),
            ((SigmaVector.build(1, {(1, 1, 1): -1}), 1),))


class TestTInvariant:
    def test_signs_cancel_on_free_orbit(self, curves):
        p = ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        blocks = t_invariant(p, curves.base_moves)
        assert all(b.is_zero for b in blocks)

    def test_mod_two_cancellation(self, diagonal):
        p = ph(diagonal.base_alphabet, "ABAB", {"A": "a", "B": "a"})
        blocks = t_invariant(p, diagonal.base_moves)
        assert all(b.is_zero for b in blocks)

    def test_empty_phrase(self, curves):
        p = ph(curves.base_alphabet, "|", {})
        assert all(b.is_zero for b in t_invariant(p, curves.base_moves))

    def test_empty_blocks_share_one_built_vector(self):
        # Every empty census block is the one zero vector built at import,
        # equal to what SigmaVector.build makes of no entries.
        shared = t_from_so(SoValue(((),)), 0)[0]
        for k in range(1, 4):
            for n_free in range(3):
                blocks = t_from_so(SoValue(((),) * k), n_free)
                assert len(blocks) == k and all(b is shared for b in blocks)
                built = SigmaVector.build(n_free, {})
                assert shared == built and shared.type_class is built.type_class is None

    def test_nonzero_example(self):
        # Interleaved letters in different orbits leave an asymmetric trace.
        alpha = Alphabet(("a", "b"))
        moves = MoveSystem.standard(alpha, [])
        p = ph(alpha, "ABAB", {"A": "a", "B": "b"})
        (block,) = t_invariant(p, moves)
        assert block.entries == (((1, 1, 2), 1), ((1, 2, 1), 1))


class TestPhraseVectors:
    def test_cross_component_letter(self, curves):
        p = ph(curves.base_alphabet, "A|A", {"A": "a"})
        (entry,) = lk_phrase(p, curves.base_moves)
        assert entry.render() == "a"
        assert clv_phrase(p, curves.base_moves) == (1, 1)

    def test_single_component_letters_do_not_count(self, curves):
        p = ph(curves.base_alphabet, "AA|", {"A": "a"})
        (entry,) = lk_phrase(p, curves.base_moves)
        assert entry.is_identity
        assert clv_phrase(p, curves.base_moves) == (0, 0)

    def test_involution_pair_cancels(self, curves):
        p = ph(curves.base_alphabet, "AB|BA", {"A": "a", "B": "b"})
        (entry,) = lk_phrase(p, curves.base_moves)
        assert entry.is_identity
        assert clv_phrase(p, curves.base_moves) == (0, 0)


class TestLiftedInvariants:
    def test_separating_values(self, diagonal):
        lifted = LiftedAlphabet(diagonal.base_alphabet, 2)
        w1 = Nanophrase(lifted.alphabet, [("A", "A")], {"A": "a_1_2"})
        w2 = Nanophrase(lifted.alphabet, [()], {})
        assert [e.render() for e in lk_lifted(w1, lifted)] == ["a"]
        assert [e.render() for e in lk_lifted(w2, lifted)] == ["1"]
        assert clv_lifted(w1, lifted) == (1, 1)
        assert clv_lifted(w2, lifted) == (0, 0)

    def test_diagonal_letters_do_not_count(self, curves):
        lifted = LiftedAlphabet(curves.base_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "A")], {"A": "a_1_1"})
        assert clv_lifted(w, lifted) == (0, 0)
        assert all(e.is_identity for e in lk_lifted(w, lifted))

    def test_so_lifted_no_diagonal_letters(self, curves):
        lifted = LiftedAlphabet(curves.base_alphabet, 2)
        p = ph(curves.base_alphabet, "AB|AB", {"A": "a", "B": "a"})
        w = phi(p, lifted)
        assert so_lifted(w, lifted).maps == ((), ())

    def test_so_lifted_degenerates_at_k1(self, curves):
        lifted = LiftedAlphabet(curves.base_alphabet, 1)
        for p in enumerate_nanophrases(curves.base_alphabet, 2, 1):
            w = phi(p, lifted)
            assert so_lifted(w, lifted) == so_phrase(p, curves.base_moves)

    def test_so_lifted_extends_so_phrase(self):
        for name in ("curves", "links", "diagonal"):
            data = builtin_data(name, 2)
            for n in range(3):
                for p in enumerate_nanophrases(data.base_alphabet, n, 2):
                    w = phi(p, data.lifted)
                    assert so_lifted(w, data.lifted) == so_phrase(p, data.base_moves)

    def test_census_survives_ungated_deletion_on_any_word(self):
        # Words that no phrase flattens to are still in the census domain.
        data = builtin_data("curves", 2)
        lifted, lmoves = data.lifted, data.lifted_moves
        open_q = MoveSystem(lifted.alphabet, q=lifted.alphabet.symbols,
                            r=lmoves.r, s=lmoves.s)
        for n in range(3):
            for w in enumerate_nanophrases(lifted.alphabet, n, 1):
                before = so_lifted(w, lifted)
                for site in find_move_sites(w, open_q, max_letters=n + 2):
                    assert so_lifted(apply_move(w, site), lifted) == before

    def test_unrestricted_doubled_deletion_preserves_so(self, diagonal):
        lifted = LiftedAlphabet(diagonal.base_alphabet, 2)
        w1 = Nanophrase(lifted.alphabet, [("A", "A")], {"A": "a_1_2"})
        w2 = Nanophrase(lifted.alphabet, [()], {})
        assert so_lifted(w1, lifted) == so_lifted(w2, lifted)


def test_phrase_and_lifted_vectors_agree_on_flattenings(curves):
    for k in (1, 2):
        lifted = LiftedAlphabet(curves.base_alphabet, k)
        for n in range(3):
            for p in enumerate_nanophrases(curves.base_alphabet, n, k):
                w = phi(p, lifted)
                assert lk_phrase(p, curves.base_moves) == lk_lifted(w, lifted)
                assert clv_phrase(p, curves.base_moves) == clv_lifted(w, lifted)


def test_applicability_rules(curves, links):
    assert phrase_invariants_applicable(curves.base_moves) == ("lk", "clv", "So", "T")
    assert phrase_invariants_applicable(links.base_moves) == ("lk", "clv")
    no_graph = MoveSystem(curves.base_alphabet, q=("a",), r=(), s=())
    assert phrase_invariants_applicable(no_graph) == ()

    curves2 = builtin_data("curves", 2)
    assert lifted_invariants_applicable(curves2.lifted_moves,
                                        curves2.lifted) == ("lk", "clv", "So")
    links2 = builtin_data("links", 2)
    assert lifted_invariants_applicable(links2.lifted_moves,
                                        links2.lifted) == ("lk", "clv")
    # Opening Q to the whole lifted alphabet keeps only the census.
    open_q = MoveSystem(curves2.lifted.alphabet,
                        q=curves2.lifted.alphabet.symbols,
                        r=curves2.lifted_moves.r, s=curves2.lifted_moves.s)
    assert lifted_invariants_applicable(open_q, curves2.lifted) == ("So",)


# Applicability against the two name lists it replaced, written out.

def _earlier_rules(moves, lifted):
    if lifted is None:
        if not moves.r_is_graph_of_tau:
            return ()
        if all(t[0] == t[1] == t[2] for t in moves.s):
            return ("lk", "clv", "So", "T")
        return ("lk", "clv")
    if moves.alphabet != lifted.alphabet or not moves.r_is_graph_of_tau:
        return ()
    names = ()
    if moves.q <= lifted.q_symbols():
        names += ("lk", "clv")
    if moves.s <= lifted.diagonal_triples():
        names += ("So",)
    return names


def _random_rules_system(rng, alphabet, q_pool, s_pool):
    """Q and S drawn from the pools, now and then with one symbol or triple from anywhere.

    R is the graph of tau or, about a third of the time, random pairs.
    """
    symbols = alphabet.symbols
    q = rng.sample(sorted(q_pool), rng.randint(0, len(q_pool)))
    s = rng.sample(sorted(s_pool), rng.randint(0, len(s_pool)))
    if rng.random() < 0.3:
        q.append(rng.choice(symbols))
    if rng.random() < 0.3:
        s.append(tuple(rng.choice(symbols) for _ in range(3)))
    r = alphabet.tau_graph
    if rng.random() < 0.3:
        pairs = list(itertools.product(symbols, repeat=2))
        r = rng.sample(pairs, rng.randint(0, min(3, len(pairs))))
    return MoveSystem(alphabet, q, r, s)


def test_applicability_matches_the_earlier_rules_on_random_systems():
    # Free, fixed and mixed alphabets lifted at k = 1..3; one word-level
    # system in ten is over another lifted alphabet.
    rng = random.Random("applicability")
    seen = set()
    for _ in range(1_500):
        n_free = rng.randint(0, 2)
        symbols = "abcd"[:2 * n_free + rng.randint(0 if n_free else 1, 4 - 2 * n_free)]
        base = Alphabet(symbols, {symbols[2 * i]: symbols[2 * i + 1] for i in range(n_free)})
        lifted = LiftedAlphabet(base, rng.randint(1, 3))
        moves = _random_rules_system(rng, base, base.symbols, diagonal_triples(base))
        names = phrase_invariants_applicable(moves)
        assert names == _earlier_rules(moves, None), moves
        seen.add((None, names))
        over = lifted if rng.random() < 0.9 else LiftedAlphabet(base, lifted.k % 3 + 1)
        moves = _random_rules_system(rng, over.alphabet, over.q_symbols(),
                                     over.diagonal_triples())
        names = lifted_invariants_applicable(moves, lifted)
        assert names == _earlier_rules(moves, lifted), moves
        seen.add((lifted.k, names))
    phrase_level = {(), ("lk", "clv"), ("lk", "clv", "So", "T")}
    word_level = {(), ("lk", "clv"), ("So",), ("lk", "clv", "So")}
    # At k = 1 every lifted symbol is some s_1_1, so Q never fails M1.
    assert seen == {(None, names) for names in phrase_level} | {
        (k, names) for k in (1, 2, 3) for names in word_level if k > 1 or names != ("So",)}


# Each clause is needed: for each, a system that fails only that clause
# and a kernel edge along which a row the clause guards changes value.
# Q, R and S are otherwise the built-ins' (curves lifted at k = 2 with Q
# opened to every symbol; the curves alphabet with R = {(a,a), (b,b)};
# links, whose S mixes orbits).

_GUARDED = {"M1": {"lk", "clv"}, "M2": {"lk", "clv", "So", "T"}, "M3": {"So", "T"}}

_CLAUSE_EDGES = [
    # (row, failed clause, word level, source, move, target)
    ("lk", "M1", True, ";", "M1ins", "1 1 ; a_1_2"),
    ("clv", "M1", True, ";", "M1ins", "1 1 ; a_1_2"),
    ("lk", "M2", False, "| ;", "M2ins", "1 2 | 2 1 ; a a"),
    ("So", "M2", False, "1 1 ; a", "M2ins", "1 2 3 2 1 3 ; a a a"),
    ("T", "M2", False, "| 1 1 ; a", "M2ins", "1 2 | 3 2 1 3 ; a a a"),
    ("So", "M3", False, "1 2 1 3 2 3 ; a+ a+ a-", "M3", "1 2 3 2 3 1 ; a+ a+ a-"),
    ("T", "M3", False, "1 2 | 1 3 2 3 ; a+ a- a-", "M3", "1 2 | 3 2 3 1 ; a- a+ a-"),
    ("So", "M3", True, "1 2 1 3 2 3 ; a+_1_1 a+_1_1 a-_1_1", "M3",
     "1 2 3 2 3 1 ; a+_1_1 a+_1_1 a-_1_1"),
]


def _form(text):
    """The form that serialize() renders as `text`."""
    body, _, symbols = text.partition(";")
    return CanonicalForm([tuple(map(int, comp.split())) for comp in body.split("|")],
                         symbols.split())


def _clause_system(clause, word_level):
    """(moves, lifted) failing only `clause`; lifted is None at the phrase level."""
    if clause == "M1":
        curves2 = builtin_data("curves", 2)
        lifted, moves = curves2.lifted, curves2.lifted_moves
        return MoveSystem(lifted.alphabet, q=lifted.alphabet.symbols, r=moves.r, s=moves.s), lifted
    if clause == "M2":
        alphabet = builtin_data("curves").base_alphabet
        return MoveSystem(alphabet, q=alphabet.symbols, r=[("a", "a"), ("b", "b")],
                          s=diagonal_triples(alphabet)), None
    links = builtin_data("links", 1)
    return (links.lifted_moves, links.lifted) if word_level else (links.base_moves, None)


def test_every_row_has_a_clause_counterexample():
    assert {row for row, *_rest in _CLAUSE_EDGES} == set(_REGISTRY)


@pytest.mark.parametrize("row,clause,word_level,source,kind,target", _CLAUSE_EDGES)
def test_each_clause_has_a_counterexample_edge(row, clause, word_level, source, kind, target):
    moves, lifted = _clause_system(clause, word_level)
    before, after = _form(source), _form(target)
    assert (str(before), str(after)) == (source, target)
    assert kind in [site.kind for site, child in
                    _expand(before.key, moves, before.n_letters + 2) if child == after.key]
    # Every row of the level, read as a system that meets every clause would.
    alphabet = moves.alphabet
    names, values = key_reader(alphabet, 1 if word_level else before.k,
                               MoveSystem(alphabet, r=alphabet.tau_graph), lifted)
    index = names.index(row)
    assert values(before.key)[index] != values(after.key)[index]
    admitted = (lifted_invariants_applicable(moves, lifted) if word_level
                else phrase_invariants_applicable(moves))
    assert admitted == tuple(name for name in names if name not in _GUARDED[clause])


def _phrase_profile(phrase, moves):
    return (lk_phrase(phrase, moves), clv_phrase(phrase, moves),
            so_phrase(phrase, moves), t_invariant(phrase, moves))


def test_invariance_under_moves_small(curves):
    moves = curves.base_moves
    for n in range(4):
        for p in enumerate_nanophrases(curves.base_alphabet, n, 2):
            before = _phrase_profile(p, moves)
            for site in find_move_sites(p, moves, max_letters=n + 2):
                assert _phrase_profile(apply_move(p, site), moves) == before


def test_lifted_invariance_under_moves_small(curves):
    data = builtin_data("curves", 2)
    lifted, lmoves = data.lifted, data.lifted_moves
    for n in range(3):
        for p in enumerate_nanophrases(curves.base_alphabet, n, 2):
            w = phi(p, lifted)
            before = (lk_lifted(w, lifted), clv_lifted(w, lifted), so_lifted(w, lifted))
            for site in find_move_sites(w, lmoves, max_letters=n + 2):
                out = apply_move(w, site)
                assert (lk_lifted(out, lifted), clv_lifted(out, lifted),
                        so_lifted(out, lifted)) == before


def test_recovery_from_census_small(curves, diagonal):
    for data in (curves, diagonal):
        alpha, moves = data.base_alphabet, data.base_moves
        checked = 0
        for n in range(4):
            for p in enumerate_nanophrases(alpha, n, 2):
                # Every entry of a letter's profile has the letter's own
                # orbit as p, so no profile is of type (iii).
                assert "iii" not in {v.type_class for v in _profile_vectors(p).values()}
                checked += 1
                assert t_from_so(so_phrase(p, moves), alpha.n_free) == \
                    t_invariant(p, moves)
        assert checked > 0


def test_so_is_constant_on_diagonal_at_one_component(diagonal):
    # One fixed symbol: a letter's row is its interleaving degree mod 2, and
    # the odd-degree letters are even in number (see _census).
    alpha, moves = diagonal.base_alphabet, diagonal.base_moves
    checked = 0
    for n in range(6):
        for p in enumerate_nanophrases(alpha, n, 1):
            assert so_phrase(p, moves).maps == ((),)
            assert all(block.is_zero for block in t_invariant(p, moves))
            checked += 1
    assert checked == 1070
    # At k = 2 it is not: in A|BAB, B interleaves the cross-component A, whose
    # first occurrence, in component 1, sets B's one entry.
    two = builtin_data("diagonal", 2)
    p = ph(two.base_alphabet, "A|BAB", {"A": "a", "B": "a"})
    assert so_phrase(p, two.base_moves).maps == (
        (), ((SigmaVector.build(0, {(1, 1, 1): 1}), 1),))


# Pair-by-pair and product-loop references for the shared profile kernel:
# at the phrase level _profile_vectors (per-letter sums of sigma_table).

def _assert_pass_rows(alphabet, k, letters, pairs, parts, reference):
    """The census's dense rows, as vectors, against reference profiles.

    The pass builds a row for each single-component letter and None for
    every other letter.
    """
    orbit, width = alphabet._orbit_index, len(alphabet.orbits)
    for ltr, row, (s, i, j) in zip(letters, _profile_pass(alphabet, k, pairs, parts), parts):
        assert (row is None) == (i != j)
        if row is not None:
            p = orbit[s]
            vec = _vector(alphabet.n_free, width, p, _reduced(alphabet, p, row))
            assert (vec, vec.type_class) == (reference[ltr], reference[ltr].type_class)


def _reference_lifted_profiles(word, lifted):
    """The double loop over ordered letter pairs, slots from subscripts."""
    base = lifted.base
    parts = {ltr: lifted.part(word.proj[ltr]) for ltr in word.letters}
    out = {}
    for x in word.letters:
        px = base.orbit_index(parts[x][0])
        raw = defaultdict(int)
        for y in word.letters:
            if x == y:
                continue
            hit = _interleaving(word.occurrences(x), word.occurrences(y))
            if hit is None:
                continue
            x_first, _y_pos = hit
            sy, iy, jy = parts[y]
            slot = jy if x_first else iy
            sign = base.epsilon(sy) * (1 if x_first else -1)
            raw[(slot, px, base.orbit_index(sy))] += sign
        out[x] = SigmaVector.build(base.n_free, raw)
    return out


def _reference_lk_clv(alphabet, k, slots):
    """Products of PiElements and parity counts, one letter at a time."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    acc = {pair: PiElement.identity(alphabet) for pair in pairs}
    counts = [0] * k
    for s, i, j in slots:
        if i != j:
            acc[(i, j)] = acc[(i, j)] * PiElement.from_symbol(alphabet, s)
            counts[i - 1] += 1
            counts[j - 1] += 1
    return tuple(acc[pair] for pair in pairs), tuple(c % 2 for c in counts)


def _reference_so_t(alphabet, k, slots, profiles):
    """So and T from reference profiles, letter by letter.

    `slots` maps each letter to its (symbol, i, j).  So buckets the type
    (i) and (ii) profiles of each component's diagonal letters in a plain
    dict; T sums epsilon times every diagonal profile with its component
    slots collapsed to 1.
    """
    maps, blocks = [], []
    for c in range(1, k + 1):
        members = [(ltr, sym) for ltr, (sym, i, j) in slots.items() if i == j == c]
        bucket, raw = {}, {}
        for ltr, sym in members:
            vec, eps = profiles[ltr], alphabet.epsilon(sym)
            if vec.type_class in ("i", "ii"):
                bucket[vec] = bucket.get(vec, 0) + eps
            for (_slot, p, q), coeff in vec.entries:
                raw[(1, p, q)] = raw.get((1, p, q), 0) + eps * coeff
        counts = {vec: total % 2 if vec.type_class == "ii" else total
                  for vec, total in bucket.items()}
        maps.append(tuple(sorted(((vec, count) for vec, count in counts.items() if count),
                                 key=lambda item: item[0].entries)))
        blocks.append(SigmaVector.build(alphabet.n_free, raw))
    return SoValue(tuple(maps)), tuple(blocks)


def _check_phrase(phrase, moves):
    reference = _profile_vectors(phrase)
    _assert_pass_rows(phrase.alphabet, phrase.k, phrase.letters, _word_pairs(phrase),
                      _phrase_parts(phrase), reference)
    slots = {ltr: (phrase.proj[ltr],) + phrase.component_pair(ltr) for ltr in phrase.letters}
    assert (lk_phrase(phrase, moves), clv_phrase(phrase, moves)) == \
        _reference_lk_clv(phrase.alphabet, phrase.k, slots.values())
    assert (so_phrase(phrase, moves), t_invariant(phrase, moves)) == \
        _reference_so_t(phrase.alphabet, phrase.k, slots, reference)


def _check_lifted(word, lifted):
    reference = _reference_lifted_profiles(word, lifted)
    _assert_pass_rows(lifted.base, lifted.k, word.letters, _word_pairs(word),
                      _lifted_parts(word, lifted), reference)
    slots = {ltr: lifted.part(word.proj[ltr]) for ltr in word.letters}
    assert (lk_lifted(word, lifted), clv_lifted(word, lifted)) == \
        _reference_lk_clv(lifted.base, lifted.k, slots.values())
    assert so_lifted(word, lifted) == \
        _reference_so_t(lifted.base, lifted.k, slots, reference)[0]


def _random_phrase(rng, alphabet, n, k):
    letters = [f"L{i}" for i in range(n)]
    flat = letters * 2
    rng.shuffle(flat)
    cuts = sorted(rng.randrange(2 * n + 1) for _ in range(k - 1))
    bounds = [0] + cuts + [2 * n]
    comps = [flat[bounds[c]:bounds[c + 1]] for c in range(k)]
    return Nanophrase(alphabet, comps, {ltr: rng.choice(alphabet.symbols) for ltr in letters})


@pytest.mark.parametrize("name", ["curves", "links", "diagonal"])
def test_profile_kernel_matches_references_on_enumerations(name):
    # links at n = 3, k = 3 has 26,880 phrases: check a seeded eighth of them.
    rng = random.Random(f"profile-kernel-enum:{name}")
    for k in (1, 2, 3):
        data = builtin_data(name, k)
        for n in range(4):
            share = 0.125 if (name, n, k) == ("links", 3, 3) else 1.0
            for p in enumerate_nanophrases(data.base_alphabet, n, k):
                if rng.random() >= share:
                    continue
                _check_phrase(p, data.base_moves)
                _check_lifted(phi(p, data.lifted), data.lifted)


@pytest.mark.parametrize("name", ["curves", "links", "diagonal"])
def test_profile_kernel_matches_references_on_random_words(name):
    rng = random.Random(f"profile-kernel:{name}")
    violated = 0
    for k in (1, 2, 3):
        data = builtin_data(name, k)
        lifted = data.lifted
        for _ in range(40):
            p = _random_phrase(rng, data.base_alphabet, rng.randint(10, 20), k)
            _check_phrase(p, data.base_moves)
            _check_lifted(phi(p, lifted), lifted)
            # Any word over the lifted alphabet, order conditions or not.
            w = _random_phrase(rng, lifted.alphabet, rng.randint(10, 20), 1)
            _check_lifted(w, lifted)
            violated += check_conditions(w, lifted) is not None
    assert violated > 0


# The renderings the CLI has always printed, one per invariant name.
def _render_tuple(value, render):
    return "(" + ",".join(render(e) for e in value) + ")"


_REFERENCE_RENDER = {
    "lk": lambda value: _render_tuple(value, lambda e: e.render()),
    "clv": lambda value: _render_tuple(value, str),
    "So": lambda value: value.render(),
    "T": lambda blocks: "; ".join(f"{j}: {block.render()}"
                                  for j, block in enumerate(blocks, start=1)),
}


def _reference_lines(word, moves, lifted):
    if lifted is None:
        names = phrase_invariants_applicable(moves)
        funcs = {"lk": lk_phrase, "clv": clv_phrase, "So": so_phrase, "T": t_invariant}
        return [(n, _REFERENCE_RENDER[n](funcs[n](word, moves))) for n in names]
    names = lifted_invariants_applicable(moves, lifted)
    funcs = {"lk": lk_lifted, "clv": clv_lifted, "So": so_lifted}
    return [(n, _REFERENCE_RENDER[n](funcs[n](word, lifted))) for n in names]


def _counting(monkeypatch, *names):
    # One list that grows by one on each call of any of the named functions.
    import nanowords.invariants as inv

    calls = []
    for name in names:
        func = getattr(inv, name)
        monkeypatch.setattr(inv, name,
                            lambda *args, func=func: calls.append(1) or func(*args))
    return calls


def _assert_lines(word, moves, lifted, reads, passes):
    # invariant_lines reads the word's key, never its records, and makes
    # one profile pass when it has a So row.
    del reads[:], passes[:]
    lines = invariant_lines(word, moves, lifted)
    names = [name for name, _ in lines]
    assert not reads
    assert len(passes) == ("So" in names)
    assert lines == _reference_lines(word, moves, lifted)
    return names


@pytest.mark.parametrize("name", ["curves", "links", "diagonal"])
def test_invariant_lines_match_public_functions(monkeypatch, name):
    reads = _counting(monkeypatch, "_phrase_parts", "_lifted_parts")
    passes = _counting(monkeypatch, "_profile_pass")
    seen = set()
    for k in (1, 2):
        data = builtin_data(name, k)
        for n in range(4):
            for p in enumerate_nanophrases(data.base_alphabet, n, k):
                seen.add(tuple(_assert_lines(p, data.base_moves, None, reads, passes)))
                w = phi(p, data.lifted)
                seen.add(tuple(_assert_lines(w, data.lifted_moves, data.lifted,
                                             reads, passes)))
    expected = {"curves": {("lk", "clv", "So", "T"), ("lk", "clv", "So")},
                "links": {("lk", "clv")},
                "diagonal": {("lk", "clv", "So", "T"), ("lk", "clv", "So")}}
    assert seen == expected[name]


def test_invariant_lines_on_ornaments_words(monkeypatch):
    reads = _counting(monkeypatch, "_phrase_parts", "_lifted_parts")
    passes = _counting(monkeypatch, "_profile_pass")
    data = builtin_data("ornaments", 2)
    for n in range(4):
        for w in enumerate_nanophrases(data.lifted.alphabet, n, 1):
            assert _assert_lines(w, data.lifted_moves, data.lifted, reads, passes) == [
                "lk", "clv", "So"]


def test_so_phrase_memo_serves_t_and_later_calls(monkeypatch, curves):
    censuses = _counting(monkeypatch, "_census")
    p = ph(curves.base_alphabet, "ABAB|CC", {"A": "a", "B": "b", "C": "a"})
    so = so_phrase(p, curves.base_moves)
    assert t_invariant(p, curves.base_moves) == t_from_so(so, curves.base_alphabet.n_free)
    assert so_phrase(p, curves.base_moves) is so
    assert len(censuses) == 1


def test_invariant_lines_without_guarantees_or_on_other_alphabets(curves, diagonal):
    alpha = Alphabet(("a",))
    non_graph = MoveSystem(alpha, q=("a",), r=(), s=())
    p = ph(alpha, "AA", {"A": "a"})
    assert invariant_lines(p, non_graph) == []
    with pytest.raises(AlphabetMismatch):
        invariant_lines(ph(curves.base_alphabet, "AA", {"A": "a"}), diagonal.base_moves)
    with pytest.raises(AlphabetMismatch):
        invariant_lines(ph(curves.base_alphabet, "AA", {"A": "a"}), curves.lifted_moves,
                        curves.lifted)
    # A word-level system over another lifted alphabet fails as the phrase level does.
    two, three = builtin_data("curves", 2), builtin_data("curves", 3)
    word = phi(ph(two.base_alphabet, "AB|AB", {"A": "a", "B": "a"}), two.lifted)
    assert lifted_invariants_applicable(three.lifted_moves, two.lifted) == ()
    with pytest.raises(AlphabetMismatch):
        invariant_lines(word, three.lifted_moves, two.lifted)


# The key reader against the phrase path: raw values against the public
# functions, rendered rows against their renderings, on form.to_phrase.

_PUBLIC = {"lk": (lk_phrase, lk_lifted), "clv": (clv_phrase, clv_lifted),
           "So": (so_phrase, so_lifted), "T": (t_invariant, None)}


def _key_level(name, k):
    """(alphabet, components, moves, lifted) of a built-in's classify sets."""
    data = builtin_data(name, k)
    if name == "ornaments":
        return data.lifted.alphabet, 1, data.lifted_moves, data.lifted
    return data.base_alphabet, k, data.base_moves, None


def _flush_rank_patterns():
    # Evicts every entry: one-letter patterns behind 600 or more
    # boundaries, which no key read here has.
    for boundaries in range(600, 600 + _rank_pattern.cache_info().maxsize):
        _rank_pattern("\0" * boundaries + "\1\1")


def _assert_key_reader(keys, alphabet, k, moves, lifted):
    # Each key is read three ways: with a cold rank-pattern memo, with a
    # warm one, and after every entry was evicted, all giving one value.
    names, values = key_reader(alphabet, k, moves, lifted)
    assert names
    cold = []
    for key in keys:
        _rank_pattern.cache_clear()
        cold.append(values(key))
        assert values(key) == cold[-1] and _rank_pattern.cache_info().hits == 1
    _flush_rank_patterns()
    assert [values(key) for key in keys] == cold
    for key, got in zip(keys, cold):
        phrase = CanonicalForm.from_key(key).to_phrase(alphabet)
        if lifted is None:
            expected = tuple(_PUBLIC[name][0](phrase, moves) for name in names)
        else:
            expected = tuple(_PUBLIC[name][1](phrase, lifted) for name in names)
        assert got == expected, CanonicalForm.from_key(key)
        assert render_rows(names, got) == _reference_lines(phrase, moves, lifted)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("k", [1, 2])
def test_key_reader_matches_the_phrase_path_on_enumerations(name, k):
    # Every phrase with n <= 3 letters, and every _expand child of those
    # with n <= 2 inside n + 2 letters (children of three-letter phrases
    # reach 10^5 to 10^6 forms on links and ornaments).
    alphabet, comps, moves, lifted = _key_level(name, k)
    keys = {}
    for n in range(4):
        for phrase in enumerate_nanophrases(alphabet, n, comps):
            key = canonical_form(phrase).key
            keys[key] = None
            if n <= 2:
                keys.update((child, None) for _site, child in _expand(key, moves, n + 2))
    _assert_key_reader(keys, alphabet, comps, moves, lifted)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("k", [1, 2])
def test_key_reader_matches_the_phrase_path_on_grown_words(name, k):
    alphabet, comps, moves, lifted = _key_level(name, k)
    forms = grown_forms(moves, comps, 8, name)
    assert max(form.n_letters for form in forms) >= 15
    _assert_key_reader([form.key for form in forms], alphabet, comps, moves, lifted)


def test_rank_pattern_matches_the_phrase_occurrences():
    # The memo's slots and pairs against component_pair and a brute-force
    # interleaving test on occurrences, on random phrases.
    rng = random.Random("rank-pattern")
    alphabet = Alphabet(("a",))
    for _ in range(400):
        n, k = rng.randint(0, 10), rng.randint(1, 3)
        phrase = _random_phrase(rng, alphabet, n, k)
        key = canonical_form(phrase).key
        firsts, seconds, pairs = _rank_pattern(key[1:len(key) - n])
        assert list(zip(firsts, seconds, phrase.letters)) == [
            phrase.component_pair(ltr) + (ltr,) for ltr in phrase.letters]
        spans = list(map(phrase.occurrences, phrase.letters))
        assert sorted(zip(pairs[::2], pairs[1::2])) == [
            (a, b) for a, b in itertools.combinations(range(n), 2)
            if spans[a][0] < spans[b][0] < spans[a][1] < spans[b][1]]
        assert _word_pairs(phrase) == pairs


def test_key_reader_rejects_keys_of_another_level(curves, diagonal):
    with pytest.raises(AlphabetMismatch):
        key_reader(curves.base_alphabet, 1, diagonal.base_moves)
    ornaments = builtin_data("ornaments", 2)
    with pytest.raises(NanowordError):
        key_reader(ornaments.lifted.alphabet, 2, ornaments.lifted_moves, ornaments.lifted)
    # A system that guarantees nothing reads no rows off any key.
    alpha = Alphabet(("a",))
    names, values = key_reader(alpha, 1, MoveSystem(alpha, q=("a",)))
    assert names == () and values(canonical_form(ph(alpha, "AA", {"A": "a"})).key) == ()


# Free and fixed orbits in one alphabet: the entries with p free and q
# fixed live mod 2 while those with both free stay integers.

_MIXED = (Alphabet("abc", {"a": "b"}), Alphabet("abcd", {"a": "c"}),
          Alphabet("abcde", {"a": "b", "c": "d"}))


@pytest.mark.parametrize("index", range(len(_MIXED)))
def test_references_hold_on_mixed_alphabets(index):
    alphabet = _MIXED[index]
    assert alphabet.n_free and alphabet.n_fixed
    rng = random.Random(f"mixed-alphabets:{index}")
    moves = MoveSystem.standard(alphabet, diagonal_triples(alphabet))
    mixed_entries = 0
    for k in (1, 2, 3):
        lifted, lifted_moves = lift_alphabet(alphabet, diagonal_triples(alphabet), k)
        phrases = [_random_phrase(rng, alphabet, rng.randint(0, 14), k) for _ in range(200)]
        for p in phrases:
            _check_phrase(p, moves)
            _check_lifted(phi(p, lifted), lifted)
            mixed_entries += sum(p_ <= alphabet.n_free < q
                                 for comp_map in so_phrase(p, moves).maps
                                 for vec, _count in comp_map for (_j, p_, q), _c in vec.entries)
        _assert_key_reader([canonical_form(p).key for p in phrases], alphabet, k, moves, None)
        _assert_key_reader([canonical_form(phi(p, lifted)).key for p in phrases],
                           lifted.alphabet, 1, lifted_moves, lifted)
    assert mixed_entries > 0


def _flush_row_memos():
    # Evicts every entry of the vector and group-element memos with
    # entries no word here reaches.
    junk = Alphabet(("z",))
    for i in range(_vector.cache_info().maxsize):
        _vector(0, 1, 1, (i + 2,))
    for i in range(_pi_element.cache_info().maxsize):
        _pi_element(junk, (i,))


def test_key_reader_builds_t_once_per_change_of_so(monkeypatch):
    # One reader, kept warm, on keys of two classes whose So (and T)
    # differ, read A, B, A, B, A and then on another key of A's class: each
    # tuple is a fresh reader's, and T is built only where So changes.
    data = builtin_data("curves", 2)
    alphabet, moves = data.base_alphabet, data.base_moves
    a, b = (canonical_form(ph(alphabet, spec, {"A": "a", "B": "a"})).key
            for spec in ("A|BAB", "BAB|A"))
    a2 = next(child for _site, child in _expand(a, moves, ord(a[0]) + 2) if child != a)
    names = key_reader(alphabet, 2, moves)[0]
    expected = {key: key_reader(alphabet, 2, moves)[1](key) for key in (a, b, a2)}
    so, t = names.index("So"), names.index("T")
    assert expected[a2][so] == expected[a][so] != expected[b][so]
    assert expected[a][t] != expected[b][t]
    built = _counting(monkeypatch, "t_from_so")
    _names, values = key_reader(alphabet, 2, moves)
    order = [a, b, a, b, a, a2, a]
    assert [values(key) for key in order] == [expected[key] for key in order]
    assert len(built) == 5


def test_row_values_do_not_depend_on_their_memos():
    # key_reader values, so_phrase and lk_phrase on fresh phrases, read
    # with cold memos, with warm ones, and after every entry was evicted;
    # values also from readers kept warm across those reads.
    cases = []
    for name, k in (("curves", 2), ("links", 3), ("diagonal", 2)):
        data = builtin_data(name, k)
        keys = [form.key for form in grown_forms(data.base_moves, k, 6, f"memos:{name}")]
        cases.append((data.base_alphabet, k, data.base_moves, keys))
    alphabet = _MIXED[2]
    moves = MoveSystem.standard(alphabet, diagonal_triples(alphabet))
    rng = random.Random("row-memos")
    cases.append((alphabet, 2, moves, [canonical_form(_random_phrase(rng, alphabet, 12, 2)).key
                                       for _ in range(6)]))

    readers = [key_reader(alphabet, k, moves)[1] for alphabet, k, moves, _keys in cases]

    def read(warm=False):
        got = []
        for (alphabet, k, moves, keys), reader in zip(cases, readers):
            values = reader if warm else key_reader(alphabet, k, moves)[1]
            for key in keys:
                phrase = CanonicalForm.from_key(key).to_phrase(alphabet)
                got.append((values(key), so_phrase(phrase, moves), lk_phrase(phrase, moves)))
        return got

    _vector.cache_clear()
    _pi_element.cache_clear()
    cold = read()
    assert _vector.cache_info().currsize and _pi_element.cache_info().currsize
    assert read() == cold
    assert read(warm=True) == cold
    _flush_row_memos()
    assert read() == cold
    assert read(warm=True) == cold
    # Warm, equal row values are one object.
    shared = read()
    assert all(a is b for (_v, so_a, _l), (_w, so_b, _m) in zip(shared, read())
               for map_a, map_b in zip(so_a.maps, so_b.maps)
               for (a, _c), (b, _d) in zip(map_a, map_b))


# Invariance on random explicit systems, beyond the built-ins.

def _random_system(rng, mixed=False):
    """A random system: free and fixed orbits, random Q and S within the diagonal.

    Up to four symbols; R is the graph of tau.  A mixed system has two or
    more symbols, and one to three of its S triples mix them.
    """
    n_free = rng.randint(0, 2)
    symbols = "abcd"[:2 * n_free + rng.randint(0 if n_free else 1 + mixed, 4 - 2 * n_free)]
    alphabet = Alphabet(symbols, {symbols[2 * i]: symbols[2 * i + 1] for i in range(n_free)})
    q = [x for x in symbols if rng.random() < 0.5]
    s = [(x, x, x) for x in symbols if rng.random() < 0.5]
    if mixed:
        s += rng.sample([t for t in itertools.product(symbols, repeat=3) if len(set(t)) > 1],
                        rng.randint(1, 3))
    return MoveSystem(alphabet, q=q, r=alphabet.tau_graph, s=s)


def _assert_rows_hold(moves, top):
    """The rows a system guarantees, unchanged across every move site.

    Those are every row when S lies within the diagonal and lk and clv
    otherwise.  Sites of every form with n <= top letters (n <= 2 on
    four symbols) and k <= 2.  Rows are read off keys and children come
    from the kernel, both pinned to the phrase path above and in
    test_moves.  Returns the number of children checked.
    """
    top = min(top, 2 if len(moves.alphabet) == 4 else 3)
    expected = (("lk", "clv", "So", "T") if moves.s <= diagonal_triples(moves.alphabet)
                else ("lk", "clv"))
    checked = 0
    for k in (1, 2):
        names, values = key_reader(moves.alphabet, k, moves)
        assert names == expected
        for n in range(top + 1):
            for phrase in enumerate_nanophrases(moves.alphabet, n, k):
                key = canonical_form(phrase).key
                before = values(key)
                for site, child in _expand(key, moves, n + 2):
                    assert values(child) == before, (moves, CanonicalForm.from_key(key), site)
                    checked += 1
    return checked


def test_rows_hold_on_random_explicit_systems_slice():
    rng = random.Random("explicit-systems")
    systems = [_random_system(rng) for _ in range(4)]
    assert sum(_assert_rows_hold(moves, 2) for moves in systems) > 10_000
    # S off the diagonal: only lk and clv are admitted, and they hold.
    rng = random.Random("explicit-systems-mixed")
    systems = [_random_system(rng, mixed=True) for _ in range(5)]
    assert sum(_assert_rows_hold(moves, 2) for moves in systems) > 60_000


@pytest.mark.slow
def test_rows_hold_on_random_explicit_systems():
    rng = random.Random("explicit-systems")
    systems = [_random_system(rng) for _ in range(24)]
    assert {moves.alphabet.n_free > 0 for moves in systems} == {True, False}
    assert {moves.alphabet.n_fixed > 0 for moves in systems} == {True, False}
    assert sum(_assert_rows_hold(moves, 3) for moves in systems) > 1_000_000
    rng = random.Random("explicit-systems-mixed")
    systems = [_random_system(rng, mixed=True) for _ in range(12)]
    assert {moves.alphabet.n_free for moves in systems} == {0, 1, 2}
    assert sum(_assert_rows_hold(moves, 3) for moves in systems) > 1_000_000
