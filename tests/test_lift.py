import argparse
import itertools
import random

import pytest

from nanowords import (
    BUILTIN_NAMES,
    Alphabet,
    ConditionViolation,
    ConditionsViolated,
    LiftedAlphabet,
    MoveSystem,
    Nanophrase,
    UnknownName,
    apply_move,
    are_isomorphic,
    builtin_data,
    canonical_form,
    check_conditions,
    diagonal_triples,
    enumerate_nanophrases,
    find_move_sites,
    lift_alphabet,
    phi,
    psi,
)
from nanowords.cli import load_word_context
from conftest import ph, random_systems


class TestLiftedAlphabet:
    def test_one_symbol_k2_sets(self, one_symbol):
        lifted, moves = lift_alphabet(one_symbol, {("a", "a", "a")}, 2)
        assert set(lifted.alphabet.symbols) == {"a_1_1", "a_1_2", "a_2_2"}
        assert moves.q == {"a_1_1", "a_2_2"}
        assert moves.r == {("a_1_1", "a_1_1"), ("a_1_2", "a_1_2"), ("a_2_2", "a_2_2")}
        assert moves.s == {
            ("a_1_1", "a_1_1", "a_1_1"),
            ("a_1_1", "a_1_2", "a_1_2"),
            ("a_1_2", "a_1_2", "a_2_2"),
            ("a_2_2", "a_2_2", "a_2_2"),
        }

    def test_k1_degenerates_to_base(self, ab_alphabet):
        triples = {("a", "a", "a"), ("b", "b", "b")}
        lifted, moves = lift_alphabet(ab_alphabet, triples, 1)
        assert len(lifted.alphabet) == len(ab_alphabet)
        assert moves.q == set(lifted.alphabet.symbols)
        assert moves.r_is_graph_of_tau
        assert {tuple(lifted.part(x)[0] for x in t) for t in moves.s} == triples

    def test_size_formula(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 3)
        assert len(lifted.alphabet) == 12  # 2 * 3 * 4 / 2

    def test_tau_preserves_subscripts(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        for sym in lifted.alphabet.symbols:
            s, i, j = lifted.part(sym)
            assert lifted.part(lifted.alphabet.tau(sym)) == (ab_alphabet.tau(s), i, j)

    def test_chained_subscripts_in_s(self, ab_alphabet):
        lifted, moves = lift_alphabet(ab_alphabet, {("a", "a", "a")}, 3)
        for t in moves.s:
            (_, i, j), (_, i2, l), (_, j2, l2) = map(lifted.part, t)
            assert (i, j) == (i2, j2) and l == l2 and i <= j <= l


class TestPhi:
    def test_cross_component_letter(self, ab_alphabet):
        p = ph(ab_alphabet, "A|A", {"A": "a"})
        w = phi(p)
        assert w.flat == ("A", "A") and w.proj["A"] == "a_1_2"

    def test_interleaved_pair(self, ab_alphabet):
        p = ph(ab_alphabet, "AB|AB", {"A": "a", "B": "a"})
        w = phi(p)
        assert w.flat == ("A", "B", "A", "B")
        assert w.proj["A"] == w.proj["B"] == "a_1_2"

    def test_single_component_letter(self, ab_alphabet):
        p = ph(ab_alphabet, "AA|", {"A": "a"})
        w = phi(p)
        assert w.proj["A"] == "a_1_1"


class TestConditions:
    def test_flattened_words_satisfy(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "B", "A", "B")],
                       {"A": "a_1_2", "B": "a_1_2"})
        assert check_conditions(w, lifted) is None

    def test_first_violation_reported(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "B", "A", "B")],
                       {"A": "a_1_1", "B": "a_2_2"})
        violation = check_conditions(w, lifted)
        assert (violation.letter_a, violation.letter_b) == ("B", "A")
        assert violation.condition == 2

    def test_empty_word_satisfies(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 3)
        w = Nanophrase(lifted.alphabet, [()], {})
        assert check_conditions(w, lifted) is None


class TestPsi:
    def test_splits_at_subscript_increase(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "A")], {"A": "a_1_2"})
        assert psi(w, lifted).components == (("A",), ("A",))

    def test_interleaving_stays_in_both_components(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "B", "A", "B")],
                       {"A": "a_1_2", "B": "a_1_2"})
        assert psi(w, lifted).components == (("A", "B"), ("A", "B"))

    def test_pads_skipped_components(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 3)
        w = Nanophrase(lifted.alphabet, [("A", "A")], {"A": "a_2_2"})
        assert psi(w, lifted).components == ((), ("A", "A"), ())

    def test_rejects_non_liftable_word(self, ab_alphabet):
        lifted = LiftedAlphabet(ab_alphabet, 2)
        w = Nanophrase(lifted.alphabet, [("A", "B", "A", "B")],
                       {"A": "a_1_1", "B": "a_2_2"})
        with pytest.raises(ConditionsViolated) as err:
            psi(w, lifted)
        assert err.value.violation.condition == 2

    def test_round_trips_small(self, ab_alphabet):
        for k in (1, 2):
            lifted = LiftedAlphabet(ab_alphabet, k)
            for n in range(3):
                for p in enumerate_nanophrases(ab_alphabet, n, k):
                    w = phi(p, lifted)
                    assert check_conditions(w, lifted) is None
                    back = psi(w, lifted)
                    assert canonical_form(back) == canonical_form(p)
                    assert canonical_form(phi(back, lifted)) == canonical_form(w)


def _assert_moves_project_back(data, k, n_max):
    # phi's image meets the four order conditions, and psi takes it back.
    # A gated move between two flattenings always comes from a phrase move:
    # rebuild the target and look for a single base move reaching it.
    alpha, base_moves = data.base_alphabet, data.base_moves
    lifted, lifted_moves = data.lifted, data.lifted_moves
    checked = 0
    for n in range(n_max + 1):
        for p in enumerate_nanophrases(alpha, n, k):
            w = phi(p, lifted)
            assert check_conditions(w, lifted) is None
            assert are_isomorphic(psi(w, lifted), p)
            for site in find_move_sites(w, lifted_moves, max_letters=n + 2):
                w2 = apply_move(w, site)
                if check_conditions(w2, lifted) is not None:
                    continue
                target = psi(w2, lifted)
                base_sites = find_move_sites(p, base_moves, max_letters=n + 2)
                assert any(are_isomorphic(apply_move(p, s), target)
                           for s in base_sites)
                checked += 1
    return checked


def test_gated_word_moves_project_back_to_phrase_moves():
    assert _assert_moves_project_back(builtin_data("curves", 2), 2, 2) > 100


# The random homotopy data of the phi sweep in test_classification.py.
# At k = 3, n stays at 1 in tier-1; n = 2 takes about 8 s a system.

@pytest.mark.parametrize("k,n_max", [(2, 2), (3, 1)])
def test_gated_word_moves_project_back_on_random_homotopy_data(k, n_max):
    for data in random_systems(4, k):
        assert _assert_moves_project_back(data, k, n_max) > 100, data.base_moves


@pytest.mark.slow
def test_gated_word_moves_project_back_on_random_homotopy_data_at_k3_n2():
    for data in random_systems(4, 3):
        assert _assert_moves_project_back(data, 3, 2) > 100, data.base_moves


def test_conditions_accept_exactly_the_flattened_words(ab_alphabet):
    # Negative-direction oracle at small size: a word failing the
    # conditions equals no flattened phrase; a word passing them equals
    # the flattening of its own reconstruction.
    k, n = 2, 2
    lifted = LiftedAlphabet(ab_alphabet, k)
    images = {canonical_form(phi(p, lifted))
              for p in enumerate_nanophrases(ab_alphabet, n, k)}
    for w in enumerate_nanophrases(lifted.alphabet, n, 1):
        ok = check_conditions(w, lifted) is None
        if ok:
            assert canonical_form(phi(psi(w, lifted), lifted)) == canonical_form(w)
        else:
            assert canonical_form(w) not in images


def _pair_scan(word, lifted):
    """The O(n^2) reference: every ordered letter pair, all four conditions."""
    info = {}
    for ltr in word.letters:
        i, j = word.occurrences(ltr)
        _s, m, n = lifted.part(word.proj[ltr])
        info[ltr] = (i, j, m, n)
    for a in word.letters:
        ia, ja, ma, na = info[a]
        for b in word.letters:
            if a == b:
                continue
            ib, jb, mb, nb = info[b]
            if ia <= ib and not ma <= mb:
                return ConditionViolation(a, b, 1)
            if ia <= jb and not ma <= nb:
                return ConditionViolation(a, b, 2)
            if ja <= ib and not na <= mb:
                return ConditionViolation(a, b, 3)
            if ja <= jb and not na <= nb:
                return ConditionViolation(a, b, 4)
    return None


@pytest.mark.parametrize("name", ["curves", "links"])
def test_label_check_matches_pair_scan_on_small_words(name):
    # Every one-component word over the lifted alphabet, n <= 3.
    for k in (1, 2, 3):
        lifted = builtin_data(name, k).lifted
        outcomes = set()
        for n in range(4):
            for w in enumerate_nanophrases(lifted.alphabet, n, 1):
                expected = _pair_scan(w, lifted)
                assert check_conditions(w, lifted) == expected
                outcomes.add(expected is None)
        assert outcomes == ({True} if k == 1 else {True, False})


@pytest.mark.parametrize("name", ["curves", "links"])
def test_label_check_matches_pair_scan_on_random_words(name):
    rng = random.Random(f"label-check:{name}")
    satisfied = violated = 0
    for k in (2, 3):
        data = builtin_data(name, k)
        lifted = data.lifted
        for _ in range(60):
            n = rng.randint(10, 20)
            letters = [f"L{i}" for i in range(n)]
            flat = letters * 2
            rng.shuffle(flat)
            cuts = sorted(rng.randrange(2 * n + 1) for _ in range(k - 1))
            bounds = [0] + cuts + [2 * n]
            phrase = Nanophrase(data.base_alphabet,
                                [flat[bounds[c]:bounds[c + 1]] for c in range(k)],
                                {ltr: rng.choice(data.base_alphabet.symbols) for ltr in letters})
            word = phi(phrase, lifted)
            # A flattened word, the same word with two adjacent positions
            # swapped, and a word with arbitrary subscripts.
            swapped = list(word.flat)
            at = rng.randrange(2 * n - 1)
            swapped[at], swapped[at + 1] = swapped[at + 1], swapped[at]
            arbitrary = {ltr: rng.choice(lifted.alphabet.symbols) for ltr in letters}
            for w in (word, Nanophrase(lifted.alphabet, [swapped], word.proj),
                      Nanophrase(lifted.alphabet, [word.flat], arbitrary)):
                expected = _pair_scan(w, lifted)
                assert check_conditions(w, lifted) == expected
                if expected is None:
                    satisfied += 1
                    assert canonical_form(phi(psi(w, lifted), lifted)) == canonical_form(w)
                else:
                    violated += 1
                    with pytest.raises(ConditionsViolated) as err:
                        psi(w, lifted)
                    assert err.value.violation == expected
    assert satisfied > 100 and violated > 100


class TestBuiltins:
    def test_curves(self):
        data = builtin_data("curves")
        assert data.base_alphabet.symbols == ("a", "b")
        assert data.base_alphabet.tau("a") == "b"
        assert data.base_moves.s == {("a", "a", "a"), ("b", "b", "b")}
        assert data.base_moves.r_is_graph_of_tau

    def test_links_counts(self):
        data = builtin_data("links")
        assert len(data.base_alphabet) == 4
        assert len(data.base_moves.s) == 12
        assert data.base_alphabet.tau("a+") == "b-"
        assert data.base_alphabet.tau("a-") == "b+"
        assert not data.base_moves.s <= diagonal_triples(data.base_alphabet)

    def test_diagonal_is_one_fixed_symbol(self):
        data = builtin_data("diagonal")
        assert data.base_alphabet.symbols == ("a",)
        assert data.base_alphabet.tau("a") == "a"
        assert data.base_moves.s == {("a", "a", "a")}

    def test_ornaments_excludes_distinct_subscripts(self):
        curves3 = builtin_data("curves", 3)
        orn3 = builtin_data("ornaments", 3)
        removed = curves3.lifted_moves.s - orn3.lifted_moves.s
        lifted = orn3.lifted
        assert removed
        for triple in removed:
            subs = [lifted.part(x) for x in triple]
            indices = {subs[0][1], subs[0][2], subs[1][2]}
            assert len(indices) == 3
        for triple in orn3.lifted_moves.s:
            subs = [lifted.part(x) for x in triple]
            indices = {subs[0][1], subs[0][2], subs[1][2]}
            assert len(indices) < 3

    @pytest.mark.parametrize("name", ["curves", "links", "diagonal", "ornaments"])
    def test_k_below_one_is_rejected(self, name):
        with pytest.raises(ValueError, match="k must be >= 1"):
            builtin_data(name, 0)

    def test_ornaments_k2_removes_nothing(self):
        assert (builtin_data("ornaments", 2).lifted_moves.s
                == builtin_data("curves", 2).lifted_moves.s)

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin_data("knots")


def _assert_r_is_the_tau_graph(base, base_moves, lifted, lifted_moves):
    # One graph {(s, tau(s))} per alphabet.  The standard base R and the
    # lifted R are that graph; the lifted tau moves only the base part.
    for alphabet in (base, lifted.alphabet):
        assert alphabet.tau_graph == {(s, alphabet.tau(s)) for s in alphabet.symbols}
    assert base_moves.r == base.tau_graph and base_moves.r_is_graph_of_tau
    assert MoveSystem.standard(base, base_moves.s).r == base.tau_graph
    assert lifted_moves.r == {
        (lifted.symbol(s, i, j), lifted.symbol(base.tau(s), i, j))
        for s, i, j in map(lifted.part, lifted.alphabet.symbols)}
    assert lifted_moves.r_is_graph_of_tau
    assert lift_alphabet(base, base_moves.s, lifted.k)[1].r == lifted_moves.r
    partial = MoveSystem(base, r=sorted(base.tau_graph)[1:])
    assert not partial.r_is_graph_of_tau


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_builtin_r_is_the_tau_graph(name, k):
    data = builtin_data(name, k)
    _assert_r_is_the_tau_graph(data.base_alphabet, data.base_moves, data.lifted,
                               data.lifted_moves)


@pytest.mark.parametrize("k,proj", [(1, "A=a B=c"), (2, "A=a_1_2 B=c_2_2")])
def test_record_r_is_the_tau_graph(tmp_path, k, proj):
    path = tmp_path / "p.txt"
    path.write_text(f"alpha: a b c\ntau: a=b\nproj: {proj}\nphrase: A B A B\n")
    ctx = load_word_context(argparse.Namespace(builtin=None, k=k), str(path))
    base = ctx.phrase.alphabet if ctx.lifted is None else ctx.lifted.base
    assert base.tau_graph == {("a", "b"), ("b", "a"), ("c", "c")}
    base_moves = MoveSystem.standard(base, diagonal_triples(base))
    if ctx.lifted is not None:
        lifted, lifted_moves = ctx.lifted, ctx.moves
    else:
        assert ctx.moves == base_moves
        lifted, lifted_moves = lift_alphabet(base, base_moves.s, 2)
    _assert_r_is_the_tau_graph(base, base_moves, lifted, lifted_moves)
