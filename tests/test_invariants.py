import itertools
import random
from collections import defaultdict

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
    apply_move,
    builtin_data,
    canonical_form,
    check_conditions,
    clv_lifted,
    clv_phrase,
    enumerate_nanophrases,
    find_move_sites,
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
    _interleaving,
    _lifted_parts,
    _profile_table,
    _profile_vectors,
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
                from nanowords.invariants import _profile_vectors
                profiles = _profile_vectors(p)
                if any(v.type_class == "iii" for v in profiles.values()):
                    continue
                checked += 1
                assert t_from_so(so_phrase(p, moves), alpha.n_free) == \
                    t_invariant(p, moves)
        assert checked > 0


# Pair-by-pair and product-loop references for the shared profile kernel.

def _sigma_sum_profiles(phrase, moves):
    """Per-letter sums of sigma_table: the reference for phrase profiles."""
    raws = {ltr: {} for ltr in phrase.letters}
    for (x, _y, j), (p, q, coeff) in sigma_table(phrase, moves).items():
        raws[x][(j, p, q)] = raws[x].get((j, p, q), 0) + coeff
    return {ltr: SigmaVector.build(phrase.alphabet.n_free, phrase.k, raw)
            for ltr, raw in raws.items()}


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
        out[x] = SigmaVector.build(base.n_free, lifted.k, raw)
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


def _check_phrase(phrase, moves):
    profiles = _profile_vectors(phrase)
    assert profiles == _sigma_sum_profiles(phrase, moves)
    assert _profile_vectors(phrase) is profiles
    slots = [(phrase.proj[ltr],) + phrase.component_pair(ltr) for ltr in phrase.letters]
    assert (lk_phrase(phrase, moves), clv_phrase(phrase, moves)) == \
        _reference_lk_clv(phrase.alphabet, phrase.k, slots)


def _check_lifted(word, lifted):
    profiles = _profile_table(lifted.base, lifted.k, word.letters, word.occurrences,
                              _lifted_parts(word, lifted))
    assert profiles == _reference_lifted_profiles(word, lifted)
    slots = [lifted.part(word.proj[ltr]) for ltr in word.letters]
    assert (lk_lifted(word, lifted), clv_lifted(word, lifted)) == \
        _reference_lk_clv(lifted.base, lifted.k, slots)


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


def _counting(monkeypatch, name):
    import nanowords.invariants as inv

    calls = []
    func = getattr(inv, name)
    monkeypatch.setattr(inv, name, lambda *args: calls.append(1) or func(*args))
    return calls


def _assert_lines(word, moves, lifted, reads, tables):
    del reads[:], tables[:]
    lines = invariant_lines(word, moves, lifted)
    names = [name for name, _ in lines]
    assert len(reads) == (1 if names else 0)
    assert len(tables) <= 1
    assert lines == _reference_lines(word, moves, lifted)
    return names


@pytest.mark.parametrize("name", ["curves", "links", "diagonal"])
def test_invariant_lines_match_public_functions(monkeypatch, name):
    reads = _counting(monkeypatch, "_phrase_parts")
    lifted_reads = _counting(monkeypatch, "_lifted_parts")
    tables = _counting(monkeypatch, "_profile_table")
    seen = set()
    for k in (1, 2):
        data = builtin_data(name, k)
        for n in range(4):
            for p in enumerate_nanophrases(data.base_alphabet, n, k):
                seen.add(tuple(_assert_lines(p, data.base_moves, None, reads, tables)))
                w = phi(p, data.lifted)
                seen.add(tuple(_assert_lines(w, data.lifted_moves, data.lifted,
                                             lifted_reads, tables)))
    expected = {"curves": {("lk", "clv", "So", "T"), ("lk", "clv", "So")},
                "links": {("lk", "clv")},
                "diagonal": {("lk", "clv", "So", "T"), ("lk", "clv", "So")}}
    assert seen == expected[name]


def test_invariant_lines_on_ornaments_words(monkeypatch):
    reads = _counting(monkeypatch, "_lifted_parts")
    tables = _counting(monkeypatch, "_profile_table")
    data = builtin_data("ornaments", 2)
    for n in range(4):
        for w in enumerate_nanophrases(data.lifted.alphabet, n, 1):
            assert _assert_lines(w, data.lifted_moves, data.lifted, reads, tables) == [
                "lk", "clv", "So"]


def test_invariant_lines_reads_the_phrase_memo(curves):
    p = ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "b"})
    invariant_lines(p, curves.base_moves)
    profiles = p._profiles
    assert profiles is not None
    so_phrase(p, curves.base_moves)
    assert p._profiles is profiles


def test_invariant_lines_without_guarantees_or_on_other_alphabets(curves, diagonal):
    alpha = Alphabet(("a",))
    non_graph = MoveSystem(alpha, q=("a",), r=(), s=())
    p = ph(alpha, "AA", {"A": "a"})
    assert invariant_lines(p, non_graph) == []
    with pytest.raises(AlphabetMismatch):
        invariant_lines(ph(curves.base_alphabet, "AA", {"A": "a"}), diagonal.base_moves)


# The key reader against the phrase path: raw values against the public
# functions, rendered rows against invariant_lines, on form.to_phrase.

_PUBLIC = {"lk": (lk_phrase, lk_lifted), "clv": (clv_phrase, clv_lifted),
           "So": (so_phrase, so_lifted), "T": (t_invariant, None)}


def _key_level(name, k):
    """(alphabet, components, moves, lifted) of a built-in's classify sets."""
    data = builtin_data(name, k)
    if name == "ornaments":
        return data.lifted.alphabet, 1, data.lifted_moves, data.lifted
    return data.base_alphabet, k, data.base_moves, None


def _assert_key_reader(keys, alphabet, k, moves, lifted):
    names, values = key_reader(alphabet, k, moves, lifted)
    assert names
    for key in keys:
        phrase = CanonicalForm.from_key(key).to_phrase(alphabet)
        got = values(key)
        if lifted is None:
            expected = tuple(_PUBLIC[name][0](phrase, moves) for name in names)
        else:
            expected = tuple(_PUBLIC[name][1](phrase, lifted) for name in names)
        assert got == expected, CanonicalForm.from_key(key)
        assert render_rows(names, got) == invariant_lines(phrase, moves, lifted)


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
