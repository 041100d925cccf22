import random
import re
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from nanowords import (
    ALL_KINDS,
    BUILTIN_NAMES,
    Alphabet,
    AlphabetMismatch,
    INSERTION_KINDS,
    MATCH_KINDS,
    CanonicalForm,
    ConsistencyError,
    MoveSite,
    MoveSystem,
    NanowordError,
    Nanophrase,
    NeighborCache,
    StaleSite,
    apply_move,
    are_isomorphic,
    builtin_data,
    canonical_form,
    decide,
    enumerate_nanophrases,
    equivalent,
    find_move_sites,
    replay_path,
)
import nanowords.kernel
import nanowords.moves
from nanowords.kernel import _children, _step_site
from nanowords.core import rank_letters
from nanowords.invariants import invariant_lines
from nanowords.moves import EQUIVALENT, NOT_EQUIVALENT, UNKNOWN, PathStep, _assemble_path, \
    _budget_cut, _expand
from conftest import grown_forms, ph


def _sites(phrase, moves, kinds=None, max_letters=None):
    return find_move_sites(phrase, moves, kinds, max_letters)


class TestSiteFinding:
    def test_doubled_letter_site(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p = ph(one_symbol, "AA", {"A": "a"})
        sites = _sites(p, moves, kinds=("M1",))
        assert len(sites) == 1 and sites[0].positions == (0, 1)

    @pytest.mark.parametrize("kinds,unknown", [(("m1",), "['m1']"), ("M1", "['1', 'M']")])
    def test_unknown_kinds_are_rejected(self, curves, kinds, unknown):
        # A bare str is read as its characters, which name no kind.
        p = ph(curves.base_alphabet, "AA", {"A": "a"})
        assert len(_sites(p, curves.base_moves, kinds=("M1",))) == 1
        with pytest.raises(NanowordError, match=re.escape(f"unknown move kinds {unknown}")):
            _sites(p, curves.base_moves, kinds=kinds)

    def test_q_gating_blocks_m1(self, one_symbol):
        moves = MoveSystem(one_symbol, q=(), r=[("a", "a")], s=())
        p = ph(one_symbol, "AA", {"A": "a"})
        assert _sites(p, moves, kinds=("M1",)) == []

    def test_abab_has_no_pair_deletion(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        assert _sites(p, moves, kinds=("M2",)) == []

    def test_a_phrase_over_another_alphabet_is_rejected(self, ab_alphabet, one_symbol):
        p = ph(ab_alphabet, "AA", {"A": "a"})
        with pytest.raises(AlphabetMismatch):
            _sites(p, MoveSystem.standard(one_symbol, []))

    def test_abba_pair_deletion(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "ABBA", {"A": "a", "B": "a"})
        sites = _sites(p, moves, kinds=("M2",))
        assert len(sites) == 1 and sites[0].letters == ("A", "B")

    def test_triple_site(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p = ph(one_symbol, "ABACBC", {"A": "a", "B": "a", "C": "a"})
        sites = _sites(p, moves, kinds=("M3",))
        assert len(sites) == 1
        assert sites[0].positions == (0, 1, 2, 3, 4, 5)
        assert sites[0].letters == ("A", "B", "C")

    def test_boundary_blocks_adjacency(self, ab_alphabet):
        moves = MoveSystem.standard(ab_alphabet, [])
        p = ph(ab_alphabet, "A|A", {"A": "a"})
        assert _sites(p, moves, kinds=("M1",)) == []

    def test_sites_sorted_and_deterministic(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p = ph(one_symbol, "AABB", {"A": "a", "B": "a"})
        sites = _sites(p, moves, max_letters=4)
        assert sites == _sites(p, moves, max_letters=4)
        kinds = [s.kind for s in sites]
        assert kinds == sorted(kinds, key=("M1", "M2", "M3", "M3inv", "M1ins",
                                           "M2ins").index)

    def test_sites_come_out_in_key_order(self, ab_alphabet, diagonal):
        # Grouped by kind in ALL_KINDS order, then ascending by positions,
        # gaps and symbols.
        def key(site):
            return (ALL_KINDS.index(site.kind), site.positions, site.gaps, site.symbols)

        moves = MoveSystem.standard(ab_alphabet, [("a", "a", "a"), ("b", "b", "b")])
        for n in range(5):
            for p in enumerate_nanophrases(ab_alphabet, n, 2 if n < 4 else 1):
                sites = _sites(p, moves, max_letters=n + 2)
                assert sites == sorted(sites, key=key)
        # An M3inv site that starts before the M3 site still comes after it.
        p = ph(diagonal.base_alphabet, "ABCDBECEDA", dict.fromkeys("ABCDE", "a"))
        sites = _sites(p, diagonal.base_moves, kinds=("M3", "M3inv"))
        assert [(s.kind, s.positions) for s in sites] == [
            ("M3", (1, 2, 4, 5, 6, 7)), ("M3inv", (0, 1, 3, 4, 8, 9))]


class TestApply:
    def test_m1_deletes(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "AA", {"A": "a"})
        (site,) = _sites(p, moves, kinds=("M1",))
        out = apply_move(p, site)
        assert out.n_letters == 0 and out.k == 1

    def test_m2_deletes_interlocked_pair(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "ABCCBA", {"A": "a", "B": "a", "C": "a"})
        sites = [s for s in _sites(p, moves, kinds=("M2",)) if s.letters == ("A", "B")]
        out = apply_move(p, sites[0])
        assert out.flat == ("C", "C")

    def test_m3_transposes(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p = ph(one_symbol, "ABACBC", {"A": "a", "B": "a", "C": "a"})
        (site,) = _sites(p, moves, kinds=("M3",))
        out = apply_move(p, site)
        assert out.flat == ("B", "A", "C", "A", "C", "B")

    def test_insertions_add_letters(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "", {})
        m1_sites = _sites(p, moves, kinds=("M1ins",), max_letters=2)
        assert len(m1_sites) == 1
        grown = apply_move(p, m1_sites[0])
        assert grown.n_letters == 1 and grown.flat[0] == grown.flat[1]
        m2_sites = _sites(p, moves, kinds=("M2ins",), max_letters=2)
        assert len(m2_sites) == 1
        grown2 = apply_move(p, m2_sites[0])
        assert canonical_form(grown2).pattern == ((1, 2, 2, 1),)

    def test_stale_site_rejected(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p = ph(one_symbol, "AA", {"A": "a"})
        (site,) = _sites(p, moves, kinds=("M1",))
        other = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        with pytest.raises(StaleSite):
            apply_move(other, site)

    def test_forged_site_with_negative_position_rejected(self, one_symbol):
        # Read with negative indexing, (-1, 0) is the doubled A of the
        # cyclic word, and deleting it would leave B B.
        p = ph(one_symbol, "ABBA", {"A": "a", "B": "a"})
        with pytest.raises(StaleSite):
            apply_move(p, MoveSite("M1", (-1, 0), ("A",)))

    def test_forged_site_with_pairs_out_of_order_rejected(self, diagonal):
        # A B A C C B has no M3 or M3inv site, but its pairs (2,3), (0,1),
        # (4,5) read A C A B C B, the letters of an M3 on (A, C, B).
        moves = diagonal.base_moves
        p = ph(moves.alphabet, "ABACCB", dict.fromkeys("ABC", "a"))
        assert _sites(p, moves, kinds=("M3", "M3inv")) == []
        forged = MoveSite("M3", (2, 3, 0, 1, 4, 5), ("A", "C", "B"))
        with pytest.raises(StaleSite):
            apply_move(p, forged)
        step = PathStep(forged, CanonicalForm(((1, 2, 3, 2, 1, 3),), ("a",) * 3))
        with pytest.raises(StaleSite):
            replay_path(canonical_form(p), (step,), moves.alphabet)

    @pytest.mark.parametrize("site", [
        MoveSite("M1", (0, 1), ("A", "B")),
        MoveSite("M2", (0, 1, 2, 3), ("A",)),
        MoveSite("M3", (0, 1), ("A",)),
        MoveSite("M3inv", (0, 1, 2, 3, 4, 5), ("A", "B")),
        MoveSite("M1ins", gaps=((0, 0),), symbols=()),
        MoveSite("M1ins", gaps=((0, 0), (0, 1)), symbols=("a",)),
        MoveSite("M2ins", gaps=((0, 0),), symbols=("a", "b")),
        MoveSite("M2ins", gaps=((0, 0), (0, 1)), symbols=("a",)),
        MoveSite("M1ins", gaps=((0,),), symbols=("a",)),
        MoveSite("M1", ("0", "1"), ("A",)),
        MoveSite("M1", (0.0, 1.0), ("A",)),
        MoveSite("M1", None, ("A",)),
        MoveSite("M1ins", gaps=((0, "x"),), symbols=("a",)),
        MoveSite("M1ins", gaps=((0, 0),), symbols=(["a"],)),
        MoveSite("M1", (0, 1), (["A"],)),
        MoveSite("M1", (0, 1), None),
        MoveSite("M1ins", gaps=None, symbols=("a",)),
        MoveSite(["M1"], (0, 1), ("A",)),
    ])
    def test_malformed_sites_raise_stale_site(self, curves, site):
        # Letters, gaps or symbols that do not match the kind's arity or
        # types, as a site read from outside the program may have them.
        p = ph(curves.base_alphabet, "AA", {"A": "a"})
        with pytest.raises(StaleSite):
            apply_move(p, site)
        step = PathStep(site, canonical_form(p))
        with pytest.raises(StaleSite):
            replay_path(p, (step,), curves.base_alphabet)

    def test_letter_count_law(self, ab_alphabet):
        moves = MoveSystem.standard(ab_alphabet, [("a", "a", "a"), ("b", "b", "b")])
        deltas = {"M1": -1, "M2": -2, "M3": 0, "M3inv": 0, "M1ins": 1, "M2ins": 2}
        for n in range(4):
            for p in enumerate_nanophrases(ab_alphabet, n, 2):
                for site in _sites(p, moves, max_letters=n + 2):
                    out = apply_move(p, site)
                    assert out.n_letters - p.n_letters == deltas[site.kind]
                    assert out.k == p.k


def _find_inverse(before, after, moves, max_letters):
    for site in find_move_sites(after, moves, max_letters=max_letters):
        if are_isomorphic(apply_move(after, site), before):
            return site
    return None


def test_every_move_has_an_inverse_on_enumeration(ab_alphabet):
    moves = MoveSystem.standard(ab_alphabet, [("a", "a", "a"), ("b", "b", "b")])
    for n in range(4):
        for p in enumerate_nanophrases(ab_alphabet, n, 2):
            for site in _sites(p, moves, max_letters=n + 1):
                out = apply_move(p, site)
                assert _find_inverse(p, out, moves, max_letters=n + 1) is not None


_PATTERNS = {"M1": "aa", "M2": "abba", "M3": "abacbc", "M3inv": "bacacb"}


def _reference_rewrite(phrase, site):
    # apply_move's result as (letters, components, projection), or None when
    # the site does not fit the phrase.  The word is phrase.flat as a list of
    # (component, letter) cells: matched pairs are deleted (M1, M2) or
    # swapped (M3, M3inv); an insertion puts x x at its gap (M1ins), or x y
    # at its first gap and y x at its second (M2ins), with fresh names N1,
    # N2, ... that skip the phrase's own names.
    cells = [(c, ltr) for c, comp in enumerate(phrase.components) for ltr in comp]
    proj = dict(phrase.proj)
    if site.kind in MATCH_KINDS:
        pos, pattern = site.positions, _PATTERNS[site.kind]
        expected = [site.letters["abc".index(ch)] for ch in pattern]
        pairs = list(zip(pos[::2], pos[1::2]))
        if (len(pos) != len(pattern) or list(pos) != sorted(set(pos))
                or not all(0 <= p < len(cells) for p in pos)
                or any(q != p + 1 or cells[p][0] != cells[q][0] for p, q in pairs)
                or [cells[p][1] for p in pos] != expected):
            return None
        if site.kind in ("M1", "M2"):
            cells = [cell for p, cell in enumerate(cells) if p not in pos]
            for ltr in site.letters:
                del proj[ltr]
        else:
            for p, q in pairs:
                cells[p], cells[q] = cells[q], cells[p]
    else:
        gaps, symbols, arity = site.gaps, site.symbols, INSERTION_KINDS.index(site.kind) + 1
        if (len(gaps) != arity or len(symbols) != arity or list(gaps) != sorted(gaps)
                or not all(0 <= c < phrase.k and 0 <= o <= len(phrase.components[c])
                           for c, o in gaps)
                or not all(sym in phrase.alphabet for sym in symbols)):
            return None
        fresh = [f"N{i}" for i in range(1, phrase.n_letters + 3) if f"N{i}" not in proj]
        x, y = fresh[:2]
        inserted = [(x, x)] if arity == 1 else [(x, y), (y, x)]
        for (c, o), pair in reversed(list(zip(gaps, inserted))):
            at = sum(map(len, phrase.components[:c])) + o
            cells[at:at] = [(c, ltr) for ltr in pair]
        proj.update(zip((x, y), symbols))
    components = tuple(tuple(ltr for c2, ltr in cells if c2 == c) for c in range(phrase.k))
    letters = tuple(dict.fromkeys(ltr for _c, ltr in cells))
    return letters, components, proj


def _forged_site(site, phrase, rng):
    # The site with one field forged, keeping its kind's arity: a position
    # shifted, two letters swapped or one renamed, the positions cut short;
    # a gap moved (possibly out of range or order), or a symbol unknown.
    if site.kind in MATCH_KINDS:
        pos, letters = list(site.positions), list(site.letters)
        how = rng.randrange(4)
        if how == 0:
            pos[rng.randrange(len(pos))] += rng.choice((-2, -1, 1, 2))
        elif how == 1 and len(letters) > 1:
            i, j = rng.sample(range(len(letters)), 2)
            letters[i], letters[j] = letters[j], letters[i]
        elif how == 2:
            letters[rng.randrange(len(letters))] = rng.choice([*phrase.letters, "?"])
        else:
            pos = pos[:-1]
        return replace(site, positions=tuple(pos), letters=tuple(letters))
    if rng.random() < 0.2:
        return replace(site, symbols=site.symbols[:-1] + ("?",))
    gaps = list(site.gaps)
    gaps[rng.randrange(len(gaps))] = (rng.randrange(-1, phrase.k + 1),
                                      rng.randrange(-1, phrase.n_letters * 2 + 2))
    return replace(site, gaps=tuple(gaps))


@pytest.mark.parametrize("name", ["curves", "diagonal"])
def test_apply_move_matches_the_reference_rewrite(name):
    # Every site at budget n + 2 of the n <= 3 enumerations at k <= 2, on
    # the enumerated phrase and, for a seeded sample, on the phrase renamed
    # so that N1 and N2 may be its own names; then seeded forged sites,
    # which raise StaleSite unless they still fit the phrase.
    data, rng = builtin_data(name), random.Random(f"reference-rewrite:{name}")
    moves = data.base_moves
    checked = stale = own_names = 0
    for k in (1, 2):
        for n in range(4):
            for p in enumerate_nanophrases(data.base_alphabet, n, k):
                sites = _sites(p, moves, max_letters=n + 2)
                for site in sites:
                    out = apply_move(p, site)
                    assert (out.letters, out.components, out.proj) == \
                        _reference_rewrite(p, site), (p, site)
                    checked += 1
                if rng.random() < 0.2:
                    renamed = _renamed(p, rng)
                    own_names += "N1" in renamed.proj or "N2" in renamed.proj
                    for site in _sites(renamed, moves, max_letters=n + 2):
                        out = apply_move(renamed, site)
                        assert (out.letters, out.components, out.proj) == \
                            _reference_rewrite(renamed, site), (renamed, site)
                for site in rng.sample(sites, min(len(sites), 3)):
                    forged = _forged_site(site, p, rng)
                    expected = _reference_rewrite(p, forged)
                    if expected is None:
                        with pytest.raises(StaleSite):
                            apply_move(p, forged)
                        stale += 1
                    else:
                        out = apply_move(p, forged)
                        assert (out.letters, out.components, out.proj) == expected, (p, forged)
    assert checked > 5000 and stale > 300 and own_names > 20, (checked, stale, own_names)


def _forms(alphabet, k, ns, sample=None):
    forms = [canonical_form(p) for n in ns for p in enumerate_nanophrases(alphabet, n, k)]
    if sample is not None:
        forms = random.Random(f"{k}:{list(ns)}:{sample}").sample(forms, sample)
    return forms


# n = 3 on links, and on curves with k = 2, is over a million children in
# all; the full enumerations stop at n = 2 there, and seeded samples of
# n = 3 forms cover it below.
@pytest.mark.parametrize("name,k,max_n", [
    ("curves", 1, 3), ("curves", 2, 2), ("curves", 3, 2), ("links", 1, 2),
    ("links", 2, 2), ("diagonal", 1, 3), ("diagonal", 2, 3),
])
def test_neighbor_cache_matches_reference_filter(name, k, max_n):
    data = builtin_data(name)
    _check_cache_against_reference(
        data.base_moves, _forms(data.base_alphabet, k, range(max_n + 1)))


@pytest.mark.parametrize("name,k,n,sample", [
    ("links", 1, 3, 150), ("links", 2, 3, 150), ("curves", 2, 3, 150),
    ("diagonal", 1, 4, 50),
])
def test_neighbor_cache_matches_reference_on_sampled_forms(name, k, n, sample):
    data = builtin_data(name)
    _check_cache_against_reference(
        data.base_moves, _forms(data.base_alphabet, k, [n], sample))


def test_neighbor_cache_matches_reference_on_lifted_ornaments():
    data = builtin_data("ornaments", 2)
    _check_cache_against_reference(
        data.lifted_moves, _forms(data.lifted.alphabet, 1, range(3)))


def _wrapped(children):
    # (site, child key) pairs of the kernel as (site, CanonicalForm) pairs.
    return [(site, CanonicalForm.from_key(child)) for site, child in children]


def _check_cache_against_reference(moves, forms):
    # Reference: build every child up to n+2 letters with apply_move and
    # canonical_form, then drop those over the budget.  One cache serves
    # every form and every budget that covers it, walked in ascending and
    # descending budget order alternately.  The lazy expansion a one-shot
    # search reads must yield the same sequence at each of those budgets.
    alphabet = moves.alphabet
    cache = NeighborCache(moves)
    for i, form in enumerate(forms):
        phrase = form.to_phrase(alphabet)
        every = [(s, canonical_form(apply_move(phrase, s)))
                 for s in find_move_sites(phrase, moves, ALL_KINDS,
                                          phrase.n_letters + 2)]
        budgets = list(range(form.n_letters, form.n_letters + 4))
        if i % 2:
            budgets.reverse()
        for max_letters in budgets + budgets[::-1]:
            expected = [(s, c) for s, c in every if c.n_letters <= max_letters]
            assert _wrapped(cache.within(form.key, max_letters)) == expected, \
                (form, max_letters)
        for max_letters in budgets:
            lazy = _expand(form.key, moves, max_letters)
            assert iter(lazy) is lazy, "children must be built lazily"
            assert _wrapped(lazy) == [(s, c) for s, c in every
                                  if c.n_letters <= max_letters], (form, max_letters)


def test_neighbor_cache_rejects_a_budget_below_the_form(curves):
    cache = NeighborCache(curves.base_moves)
    form = canonical_form(ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "b"}))
    with pytest.raises(ValueError):
        cache.within(form.key, form.n_letters - 1)
    assert cache.within(form.key, form.n_letters) == cache.raw(form.key, 0)


def _assert_form_sites_match(moves, form, max_letters):
    # Same sites, in the same order and with the same letter names, as on
    # the phrase the form stands for.
    phrase = form.to_phrase(moves.alphabet)
    assert find_move_sites(form, moves, ALL_KINDS, max_letters) == \
        find_move_sites(phrase, moves, ALL_KINDS, max_letters), form
    assert find_move_sites(form, moves) == find_move_sites(phrase, moves), form
    assert find_move_sites(form.key, moves, ALL_KINDS, max_letters) == \
        find_move_sites(form, moves, ALL_KINDS, max_letters), form
    assert find_move_sites(form.key, moves) == find_move_sites(form, moves), form


@pytest.mark.parametrize("name,k", [
    ("links", 1), ("links", 2), ("curves", 1), ("curves", 2),
    ("diagonal", 1), ("diagonal", 2),
])
def test_form_sites_match_phrase_sites_on_enumerations(name, k):
    data = builtin_data(name)
    for form in _forms(data.base_alphabet, k, range(4)):
        _assert_form_sites_match(data.base_moves, form, form.n_letters + 2)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_default_kinds_are_every_kind(name):
    # kinds=None asks for every kind; without a budget no insertion fits.
    data = builtin_data(name, 2)
    alphabet, moves = ((data.lifted.alphabet, data.lifted_moves) if name == "ornaments"
                       else (data.base_alphabet, data.base_moves))
    for n in range(4):
        for phrase in enumerate_nanophrases(alphabet, n, 1):
            assert find_move_sites(phrase, moves) == \
                find_move_sites(phrase, moves, MATCH_KINDS), phrase
            assert find_move_sites(phrase, moves, max_letters=n + 2) == \
                find_move_sites(phrase, moves, ALL_KINDS, n + 2), phrase


@pytest.mark.parametrize("name", ["links", "curves", "diagonal"])
@pytest.mark.parametrize("k", [1, 2])
def test_form_sites_match_phrase_sites_on_grown_words(name, k):
    data = builtin_data(name)
    moves = data.base_moves
    forms = grown_forms(moves, k, 6, name)
    for form in forms:
        _assert_form_sites_match(moves, form, form.n_letters + 1)
    # The kernel on those forms: every matched move and M1ins, in order.
    cache = NeighborCache(moves)
    for form in forms:
        phrase = form.to_phrase(moves.alphabet)
        expected = [(s, canonical_form(apply_move(phrase, s)))
                    for s in find_move_sites(phrase, moves, ALL_KINDS, form.n_letters + 1)]
        assert _wrapped(cache.within(form.key, form.n_letters + 1)) == expected, form


def _reference_matched_sites(phrase, moves):
    # The pair and triple scans over adjacent positions that found the
    # matched sites before the partner index, kept as the reference.
    flat, comp_of, proj = phrase.flat, phrase.comp_of, phrase.proj
    adj = [p for p in range(len(flat) - 1) if comp_of[p] == comp_of[p + 1]]
    sites = []
    for p in adj:
        if flat[p] == flat[p + 1] and proj[flat[p]] in moves.q:
            sites.append(MoveSite("M1", (p, p + 1), (flat[p],)))
    for ai, i in enumerate(adj):
        a, b = flat[i], flat[i + 1]
        if a == b or (proj[a], proj[b]) not in moves.r:
            continue
        for j in adj[ai + 1:]:
            if j >= i + 2 and flat[j] == b and flat[j + 1] == a:
                sites.append(MoveSite("M2", (i, i + 1, j, j + 1), (a, b)))
    m3, m3inv = [], []
    for x, i in enumerate(adj):
        for y in range(x + 1, len(adj)):
            j = adj[y]
            if j < i + 2:
                continue
            for l in adj[y + 1:]:
                if l < j + 2:
                    continue
                pos = (i, i + 1, j, j + 1, l, l + 1)
                if flat[i] == flat[j] and flat[i + 1] == flat[l] \
                        and flat[j + 1] == flat[l + 1]:
                    a, b, c = flat[i], flat[i + 1], flat[j + 1]
                    if (proj[a], proj[b], proj[c]) in moves.s:
                        m3.append(MoveSite("M3", pos, (a, b, c)))
                if flat[i + 1] == flat[j + 1] and flat[j] == flat[l] \
                        and flat[i] == flat[l + 1]:
                    a, b, c = flat[i + 1], flat[i], flat[j]
                    if (proj[a], proj[b], proj[c]) in moves.s:
                        m3inv.append(MoveSite("M3inv", pos, (a, b, c)))
    return sites + m3 + m3inv


def _assert_matched_sites_match_reference(moves, phrase, counts):
    # On the phrase and on its canonical form (read as form.to_phrase
    # builds it), for the matched kinds alone and with the insertions of
    # a budget of n + 2 letters.
    form = canonical_form(phrase)
    for word, named in ((phrase, phrase), (form, form.to_phrase(moves.alphabet))):
        expected = _reference_matched_sites(named, moves)
        assert find_move_sites(word, moves, MATCH_KINDS) == expected, word
        budget = word.n_letters + 2
        assert find_move_sites(word, moves, ALL_KINDS, budget) == \
            expected + find_move_sites(word, moves, INSERTION_KINDS, budget), word
    for site in expected:
        counts[site.kind] = counts.get(site.kind, 0) + 1


def _walked_phrases(moves, k, count, seed):
    # Seeded 10 to 22 letter phrases, walked from the empty phrase by
    # moves of a random kind inside a letter budget of the target size;
    # below target - 2 letters only insertions are drawn.
    rng = random.Random(f"walk:{seed}:{k}")
    phrases = []
    for _ in range(count):
        target = rng.randint(10, 22)
        phrase = Nanophrase(moves.alphabet, [()] * k, {})
        steps = 0
        while steps < 4 * target or phrase.n_letters < 10:
            kinds = ALL_KINDS if phrase.n_letters >= target - 2 else INSERTION_KINDS
            sites = find_move_sites(phrase, moves, (rng.choice(kinds),), target)
            if sites:
                phrase = apply_move(phrase, rng.choice(sites))
            steps += 1
        phrases.append(phrase)
    return phrases


def test_matched_sites_match_the_reference_scans():
    # diagonal k = 1 at n = 5 has words with an M3inv site before an M3 site.
    counts = {}
    for name, k, max_n in (("curves", 1, 3), ("curves", 2, 3), ("links", 1, 3),
                           ("links", 2, 3), ("diagonal", 1, 5), ("diagonal", 2, 3)):
        data = builtin_data(name)
        for n in range(max_n + 1):
            for phrase in enumerate_nanophrases(data.base_alphabet, n, k):
                _assert_matched_sites_match_reference(data.base_moves, phrase, counts)
    for name in ("ornaments", "curves"):
        data = builtin_data(name, 2)
        for n in range(3):
            for word in enumerate_nanophrases(data.lifted.alphabet, n, 1):
                _assert_matched_sites_match_reference(data.lifted_moves, word, counts)
    for name in ("curves", "links", "diagonal"):
        moves = builtin_data(name).base_moves
        for k in (1, 2, 3):
            for phrase in _walked_phrases(moves, k, 6, name):
                _assert_matched_sites_match_reference(moves, phrase, counts)
    # Every matched kind occurs often enough for the comparison to mean something.
    assert all(counts.get(kind, 0) >= 50 for kind in MATCH_KINDS), counts


@pytest.mark.parametrize("spec,expected", [
    # The M3inv candidate at the pair (1, 2) would be j = -1.
    ("ABAB", []),
    # Partner pairs in later components.
    ("AB|BA", [("M2", (0, 1, 2, 3))]),
    ("AB|AC|BC", [("M3", (0, 1, 2, 3, 4, 5))]),
    ("BA|CA|CB", [("M3inv", (0, 1, 2, 3, 4, 5))]),
    ("ABAC|BC", [("M3", (0, 1, 2, 3, 4, 5))]),
    # A partner pair split by a component boundary.
    ("AB|B|A", []),
    ("ABA|CBC", []),
    ("AB|ACB|C", []),
    ("BAC|ACB", []),
    ("BACA|C|B", []),
    # Both later occurrences end a component: the boundaries after them
    # are no shared third letter.
    ("AB|A|B", []),
    ("AB|A|CB|C", []),
])
def test_partner_pairs_across_components(diagonal, spec, expected):
    p = ph(diagonal.base_alphabet, spec, dict.fromkeys("ABC", "a"))
    sites = find_move_sites(p, diagonal.base_moves, MATCH_KINDS)
    assert [(s.kind, s.positions) for s in sites] == expected
    assert sites == _reference_matched_sites(p, diagonal.base_moves)
    key = canonical_form(p).key
    assert [(s.kind, s.positions) for s in find_move_sites(key, diagonal.base_moves,
                                                           MATCH_KINDS)] == expected


def _kernel_words(moves, count, seed):
    # Seeded phrases of 6 to 9 letters on 1 to 3 components, some of them
    # left empty.  Even ones are walked from the empty phrase by moves
    # whose gaps lie in a seeded set of open components: below target - 2
    # letters only insertions, then any kind inside a budget of the
    # target.  Odd ones are shuffled letter pairs with the three pairs of
    # an M3 or M3inv pattern on an S member planted among them, cut into
    # the open components.
    rng = random.Random(f"kernel:{seed}")
    symbols = sorted(moves.alphabet.symbols)
    phrases = []
    for index in range(count):
        k, target = rng.randint(1, 3), rng.randint(6, 9)
        open_components = sorted(rng.sample(range(k), rng.randint(1, k)))
        if index % 2:
            letters = [f"L{i}" for i in range(target - 3)] * 2
            rng.shuffle(letters)
            proj = {ltr: rng.choice(symbols) for ltr in letters}
            proj.update(zip("XYZ", rng.choice(sorted(moves.s))))
            planted = [("X", "Y"), ("X", "Z"), ("Y", "Z")] if index % 4 == 1 else \
                [("Y", "X"), ("Z", "X"), ("Z", "Y")]
            for at, pair in zip(sorted(rng.choices(range(len(letters) + 1), k=3), reverse=True),
                                planted[::-1]):
                letters[at:at] = pair
            cuts = sorted(rng.choices(range(2 * target + 1), k=len(open_components) - 1))
            comps = [[] for _ in range(k)]
            for c, start, stop in zip(open_components, [0, *cuts], [*cuts, 2 * target]):
                comps[c] = letters[start:stop]
            phrases.append(Nanophrase(moves.alphabet, comps, proj))
            continue
        phrase = Nanophrase(moves.alphabet, [()] * k, {})
        steps = 0
        while steps < 3 * target or phrase.n_letters < 6:
            kinds = ALL_KINDS if phrase.n_letters >= target - 2 else INSERTION_KINDS
            sites = [s for s in find_move_sites(phrase, moves, (rng.choice(kinds),), target)
                     if all(c in open_components for c, _o in s.gaps)]
            if sites:
                phrase = apply_move(phrase, rng.choice(sites))
            steps += 1
        phrases.append(phrase)
    return phrases


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "ornaments-lifted"])
def test_kernel_matches_the_reference_on_grown_words(name):
    # _expand on a key against find_move_sites on form.to_phrase, then
    # apply_move and canonical_form, at budgets n..n+2, for every kind and
    # for each kind alone; and the key's matched sites against the old
    # pair and triple scans, on the key and on the phrase.
    data = builtin_data("ornaments", 2) if name == "ornaments-lifted" else builtin_data(name)
    moves = data.lifted_moves if name == "ornaments-lifted" else data.base_moves
    counts, empty = Counter(), 0
    for phrase in _kernel_words(moves, 12, name):
        form = canonical_form(phrase)
        named = form.to_phrase(moves.alphabet)
        reference = _reference_matched_sites(named, moves)
        assert find_move_sites(form.key, moves, MATCH_KINDS) == reference, form
        assert find_move_sites(phrase, moves, MATCH_KINDS) == \
            _reference_matched_sites(phrase, moves), phrase
        every = [(s, canonical_form(apply_move(named, s)))
                 for s in find_move_sites(named, moves, ALL_KINDS, form.n_letters + 2)]
        for max_letters in range(form.n_letters, form.n_letters + 3):
            expected = [(s, c) for s, c in every if c.n_letters <= max_letters]
            assert _wrapped(_expand(form.key, moves, max_letters)) == expected, \
                (form, max_letters)
            for kind in ALL_KINDS:
                assert _wrapped(_expand(form.key, moves, max_letters, (kind,))) == \
                    [(s, c) for s, c in expected if s.kind == kind], (form, max_letters, kind)
        counts.update(s.kind for s, _c in every)
        empty += not all(phrase.components)
    # Every kind occurs, and some words have an empty component.
    assert empty and set(counts) == set(ALL_KINDS), (counts, empty)


def _built_kinds(monkeypatch):
    # The kinds of the matched children the kernel builds from now on.
    built = []
    deleted, triple = nanowords.kernel._deleted, nanowords.kernel._triple
    monkeypatch.setattr(nanowords.kernel, "_deleted", lambda n, packed, codes, a, b: built.append(
        "M1" if a == b else "M2") or deleted(n, packed, codes, a, b))
    monkeypatch.setattr(nanowords.kernel, "_triple", lambda kind, *args: built.append(kind)
                        or triple(kind, *args))
    return built


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_single_kind_expansions_filter_the_all_kinds_one(monkeypatch, name):
    # Each kind alone, and the transposition pair that path assembly asks
    # for, give the all-kinds sequence filtered to those kinds, and build
    # no matched child of another kind; on the forms of n <= 3 letters
    # (n <= 2 at k = 2) and on grown words, at budgets n and n + 2.
    moves = builtin_data(name).base_moves
    keys = [form.key for k, top in ((1, 3), (2, 2))
            for form in _forms(moves.alphabet, k, range(top + 1))]
    keys += [canonical_form(p).key for p in _kernel_words(moves, 8, f"single:{name}")]
    built = _built_kinds(monkeypatch)
    requests = [(kind,) for kind in ALL_KINDS] + [("M3", "M3inv")]
    for key in keys:
        for max_letters in (ord(key[0]), ord(key[0]) + 2):
            every = list(_expand(key, moves, max_letters))
            for kinds in requests:
                del built[:]
                assert list(_expand(key, moves, max_letters, kinds)) == \
                    [(s, c) for s, c in every if s.kind in kinds], (key, kinds)
                assert set(built) <= set(kinds), (key, kinds, built)


# The kinds of a step that changes the letter count by the key.
_KINDS_BY_DELTA = {-2: ("M2",), -1: ("M1",), 0: ("M3", "M3inv"), 1: ("M1ins",), 2: ("M2ins",)}


def _expansion_step_rule(moves):
    # The path step rule that kernel._step_site replaced: the first site of
    # the source's expansion, restricted to the kinds of the letter-count
    # change, whose child is the target.  Each (source, kinds) expansion is
    # read once, at a budget covering every key within two letters.
    memo = {}

    def first_site(source, target):
        kinds = _KINDS_BY_DELTA[ord(target[0]) - ord(source[0])]
        if (source, kinds) not in memo:
            if len(memo) > 4096:
                memo.clear()
            memo[source, kinds] = first = {}
            for site, child in _expand(source, moves, ord(source[0]) + 2, kinds):
                first.setdefault(child, site)
        return memo[source, kinds].get(target)
    return first_site


def _step_inputs(name, sizes):
    # (moves, keys): the forms of each (k, n) in sizes over a built-in,
    # ornaments as lifted words at k = 2, a (k, n, count) entry a seeded
    # sample of count forms.  "gated" is an explicit system whose Q and R
    # reject moves the built-ins admit: on ABCCBA with A, C on a and B on
    # b, the M2 site on AB is rejected and the later one on BC admitted.
    if name == "gated":
        moves = MoveSystem(Alphabet(("a", "b")), q=["a"], r=[("b", "a")], s=[("a", "b", "a")])
    else:
        data = builtin_data(name, 2) if name == "ornaments" else builtin_data(name)
        moves = data.lifted_moves if name == "ornaments" else data.base_moves
    keys = []
    for k, n, *count in sizes:
        forms = _forms(moves.alphabet, k, [n], *count)
        keys += [form.key for form in forms]
    return moves, keys


def _check_children_and_steps(moves, keys):
    # (a) _children against _expand on every key and on every child of one,
    # at budgets n to n + 2.  (b) _step_site against the expansion rule for
    # every (key, child) and (child, key) pair of the n + 2 expansions.
    # Returns counts of the cases the pairs met.
    rule, seen = _expansion_step_rule(moves), Counter()
    for key in keys:
        n = ord(key[0])
        every = list(_expand(key, moves, n + 2))
        for node in [key, *dict.fromkeys(child for _site, child in every)]:
            for max_letters in range(ord(node[0]), ord(node[0]) + 3):
                assert list(_children(node, moves, max_letters)) == \
                    [child for _site, child in _expand(node, moves, max_letters)], \
                    (node, max_letters)
        sites_of = Counter(child for _site, child in every)
        seen["several sites"] += sum(count > 1 for count in sites_of.values())
        for child in sites_of:
            for source, target in ((key, child), (child, key)):
                site = _step_site(source, target, moves)
                assert site == rule(source, target), (source, target)
                seen[site.kind] += 1
                if site.kind == "M2ins" and site.gaps[0] == site.gaps[1]:
                    seen["M2ins equal gaps"] += 1
                if site.gaps and not source[1:len(source) - ord(source[0])].split("\0")[
                        site.gaps[0][0]]:
                    seen["empty component"] += 1
    return seen


_STEP_CASES = ["several sites", "M2ins equal gaps", "empty component", *ALL_KINDS]


@pytest.mark.parametrize("name,sizes", [
    ("curves", [(1, 0), (1, 1), (1, 2), (3, 1), (1, 3, 25), (2, 3, 10), (3, 2, 15)]),
    ("links", [(1, 1), (2, 1), (3, 1, 8), (1, 2, 12), (3, 2, 8)]),
    ("diagonal", [(1, 3), (2, 2), (3, 2), (3, 3, 15)]),
    ("ornaments", [(1, 1), (1, 2, 25), (1, 3, 8)]),
    ("gated", [(1, 2), (1, 3), (2, 2)]),
])
def test_children_and_step_sites_match_the_expansion(name, sizes):
    # The frontier's child keys and the path steps read off their keys,
    # against the expansion they replace, on small enumerations and their
    # children (k = 3 included) and seeded samples of larger ones.  Only
    # the diagonal S makes transpositions common enough to meet here.
    seen = _check_children_and_steps(*_step_inputs(name, sizes))
    assert all(seen[case] for case in _STEP_CASES
               if name == "diagonal" or case not in ("M3", "M3inv")), seen
    if name == "gated":
        alpha, moves = Alphabet(("a", "b")), _step_inputs(name, [])[0]
        nested = canonical_form(ph(alpha, "ABCCBA", {"A": "a", "B": "b", "C": "a"})).key
        assert _step_site(nested, canonical_form(ph(alpha, "AA", {"A": "a"})).key, moves) \
            == MoveSite("M2", (1, 2, 3, 4), ("B", "C"))


@pytest.mark.parametrize("name,sizes", [
    ("curves", [(1, 1), (1, 2), (2, 2), (1, 3, 10)]),
    ("links", [(1, 1), (2, 1), (2, 2, 10)]),
    ("diagonal", [(1, 2), (2, 2), (1, 3, 10)]),
    ("ornaments", [(1, 1), (1, 2, 15)]),
])
def test_children_at_the_budget_build_no_insertion_batch(monkeypatch, name, sizes):
    # At max_letters == n no insertion fits: _children is _expand's
    # children, the matched ones as one list, and no _child_batches call is
    # made.  With slack left the batches are built, each as it is reached.
    moves, keys = _step_inputs(name, sizes)
    real, calls, built = nanowords.kernel._child_batches, [], []

    def counted(*args):
        calls.append(args)
        return (built.append(1) or batch for batch in real(*args))

    expected = {key: [[child for _site, child in _expand(key, moves, ord(key[0]) + slack)]
                      for slack in (0, 2)] for key in keys}
    monkeypatch.setattr(nanowords.kernel, "_child_batches", counted)
    for key, (at_budget, every) in expected.items():
        n, matched = ord(key[0]), len(at_budget)
        calls.clear()
        built.clear()
        assert _children(key, moves, n) == at_budget and not calls, key
        lazy = _children(key, moves, n + 2)
        assert list(islice(lazy, matched)) == at_budget and not built, key
        assert next(lazy) == every[matched] and len(built) == 1, key
        assert list(lazy) == every[matched + 1:] and len(calls) == 1, key


def test_budget_cut_and_the_site_finder_share_one_room_rule():
    # moves._budget_cut and kernel._sites each write "M1ins needs one
    # letter of room, M2ins two": the cut holds exactly when the budget
    # drops an insertion kind that two letters of room would yield.
    curves = builtin_data("curves")
    alpha, s = curves.base_alphabet, curves.base_moves.s
    systems = [builtin_data(name).base_moves for name in ("curves", "links", "diagonal")]
    systems += [MoveSystem(alpha, q=(), r=alpha.tau_graph, s=s),
                MoveSystem(alpha, q=alpha.symbols, r=(), s=s),
                MoveSystem(alpha, q=(), r=(), s=s)]
    cases = 0
    for moves in systems:
        for n in range(3):
            for p in enumerate_nanophrases(moves.alphabet, n, 1):
                key = canonical_form(p).key
                room = {site.kind for site in find_move_sites(p, moves, INSERTION_KINDS, n + 2)}
                for max_letters in range(n, n + 3):
                    kinds = {site.kind for site in
                             find_move_sites(p, moves, INSERTION_KINDS, max_letters)}
                    assert _budget_cut(key, moves, max_letters) == (kinds != room), \
                        (moves, key, max_letters)
                    cases += 1
    assert cases == 354


@pytest.mark.slow
@pytest.mark.parametrize("name,sizes", [
    ("curves", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3, 100), (3, 1), (3, 2),
                (3, 3, 60)]),
    ("links", [(1, 0), (1, 1), (1, 2), (1, 3, 100), (2, 1), (2, 2, 60), (3, 1), (3, 2, 60)]),
    ("diagonal", [(k, n) for k in (1, 2, 3) for n in range(4)]),
    ("ornaments", [(1, 0), (1, 1), (1, 2), (1, 3, 100)]),
])
def test_children_and_step_sites_match_the_expansion_on_larger_sets(name, sizes):
    # The ornament sets here meet no M3 or M3inv step.
    seen = _check_children_and_steps(*_step_inputs(name, sizes))
    assert all(seen[case] for case in _STEP_CASES
               if name != "ornaments" or case not in ("M3", "M3inv")), seen


class TestFormKernel:
    """The key kernel on hand-checked insertions, against the reference."""

    @staticmethod
    def _child(moves, spec, proj, kind, gaps, symbols):
        form = canonical_form(ph(moves.alphabet, spec, proj))
        phrase = form.to_phrase(moves.alphabet)
        (site,) = [s for s in find_move_sites(phrase, moves, (kind,), form.n_letters + 2)
                   if s.gaps == gaps and s.symbols == symbols]
        ((_site, child),) = _wrapped(
            (s, c) for s, c in _expand(form.key, moves, form.n_letters + 2, (kind,)) if s == site)
        assert child == canonical_form(apply_move(phrase, site))
        return child

    def test_m1ins_on_the_empty_form(self, diagonal):
        child = self._child(diagonal.base_moves, "", {}, "M1ins", ((0, 0),), ("a",))
        assert child == CanonicalForm(((1, 1),), ("a",))

    def test_m2ins_on_the_empty_form(self, curves):
        child = self._child(curves.base_moves, "|", {}, "M2ins",
                            ((0, 0), (1, 0)), ("b", "a"))
        assert child == CanonicalForm(((1, 2), (2, 1)), ("b", "a"))

    def test_insertion_into_an_empty_middle_component(self, curves):
        child = self._child(curves.base_moves, "AA||BB", {"A": "a", "B": "b"},
                            "M1ins", ((1, 0),), ("a",))
        assert child == CanonicalForm(((1, 1), (2, 2), (3, 3)), ("a", "a", "b"))

    def test_insertion_at_the_start_of_a_later_component(self, curves):
        child = self._child(curves.base_moves, "AA|BB", {"A": "a", "B": "b"},
                            "M1ins", ((1, 0),), ("b",))
        assert child == CanonicalForm(((1, 1), (2, 2, 3, 3)), ("a", "b", "b"))

    def test_insertion_at_the_end_of_the_last_component(self, curves):
        child = self._child(curves.base_moves, "AB|BA", {"A": "a", "B": "b"},
                            "M2ins", ((1, 2), (1, 2)), ("a", "b"))
        assert child == CanonicalForm(((1, 2), (2, 1, 3, 4, 4, 3)),
                                      ("a", "b", "a", "b"))

    def test_m2ins_with_equal_gaps(self, curves):
        child = self._child(curves.base_moves, "AA", {"A": "b"},
                            "M2ins", ((0, 1), (0, 1)), ("a", "b"))
        assert child == CanonicalForm(((1, 2, 3, 3, 2, 1),), ("b", "a", "b"))

    def test_m2ins_across_components(self, curves):
        child = self._child(curves.base_moves, "AA|BB", {"A": "a", "B": "b"},
                            "M2ins", ((0, 0), (1, 1)), ("b", "a"))
        assert child == CanonicalForm(((1, 2, 3, 3), (4, 2, 1, 4)),
                                      ("b", "a", "a", "b"))

    def test_later_letters_first_occur_after_the_gap(self, curves):
        # B and C first occur after the gap, so both shift past the new letter.
        child = self._child(curves.base_moves, "ABACBC",
                            {"A": "a", "B": "b", "C": "a"}, "M1ins", ((0, 1),), ("b",))
        assert child == CanonicalForm(((1, 2, 2, 3, 1, 4, 3, 4),),
                                      ("a", "b", "b", "a"))


class TestEquivalent:
    def test_doubled_letter_is_trivial(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        aa = ph(one_symbol, "AA", {"A": "a"})
        empty = ph(one_symbol, "", {})
        verdict = equivalent(aa, empty, moves, max_letters=4, max_states=1000)
        assert verdict.is_equivalent and len(verdict.path) == 1

    def test_isomorphic_inputs_give_empty_path(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p1 = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        p2 = ph(one_symbol, "XYXY", {"X": "a", "Y": "a"})
        verdict = equivalent(p1, p2, moves, max_letters=4, max_states=100)
        assert verdict.is_equivalent and verdict.path == ()

    def test_component_count_mismatch(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [])
        p1 = ph(one_symbol, "AA", {"A": "a"})
        p2 = ph(one_symbol, "A|A", {"A": "a"})
        verdict = equivalent(p1, p2, moves, max_letters=4, max_states=100)
        assert verdict.status == "not_equivalent"

    def test_phrases_over_another_alphabet_are_rejected(self, ab_alphabet, one_symbol):
        aa = ph(ab_alphabet, "AA", {"A": "a"})
        empty = ph(ab_alphabet, "", {})
        with pytest.raises(AlphabetMismatch):
            equivalent(aa, empty, MoveSystem.standard(one_symbol, []), max_letters=4,
                       max_states=100)

    def test_parity_separation_is_certified_by_exhaustion(self, one_symbol):
        # Without doubled-letter moves the letter count keeps its parity,
        # so the reachable set of AA is finite and closed.
        moves = MoveSystem(one_symbol, q=(), r=[("a", "a")], s=[("a", "a", "a")])
        aa = ph(one_symbol, "AA", {"A": "a"})
        empty = ph(one_symbol, "", {})
        verdict = equivalent(aa, empty, moves, max_letters=4, max_states=10_000)
        assert verdict.status == "not_equivalent"

    def test_budget_exhaustion_reports_unknown(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p1 = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        empty = ph(one_symbol, "", {})
        verdict = equivalent(p1, empty, moves, max_letters=8, max_states=50)
        assert verdict.status == "unknown"

    def test_interlocked_square_is_trivial_with_diagonal_triples(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        p1 = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        empty = ph(one_symbol, "", {})
        verdict = equivalent(p1, empty, moves, max_letters=8, max_states=500_000)
        assert verdict.is_equivalent
        assert replay_path(canonical_form(p1), verdict.path,
                           one_symbol) == canonical_form(empty)

    def test_paths_replay_and_are_deterministic(self, ab_alphabet):
        moves = MoveSystem.standard(ab_alphabet, [("a", "a", "a"), ("b", "b", "b")])
        p1 = ph(ab_alphabet, "ABBACC", {"A": "a", "B": "b", "C": "a"})
        empty = ph(ab_alphabet, "", {})
        first = equivalent(p1, empty, moves, max_letters=8, max_states=100_000)
        second = equivalent(p1, empty, moves, max_letters=8, max_states=100_000)
        assert first.is_equivalent
        assert first.status == second.status
        assert [s.site for s in first.path] == [s.site for s in second.path]
        assert replay_path(canonical_form(p1), first.path,
                           ab_alphabet) == canonical_form(empty)

    def test_shared_neighbor_cache(self, one_symbol):
        moves = MoveSystem.standard(one_symbol, [("a", "a", "a")])
        cache = NeighborCache(moves)
        aa = ph(one_symbol, "AA", {"A": "a"})
        abba = ph(one_symbol, "ABBA", {"A": "a", "B": "a"})
        empty = ph(one_symbol, "", {})
        v1 = equivalent(aa, empty, moves, 4, 1000, neighbor_cache=cache)
        v2 = equivalent(abba, empty, moves, 4, 1000, neighbor_cache=cache)
        assert v1.is_equivalent and v2.is_equivalent

    def test_shared_neighbor_cache_across_budgets(self, diagonal):
        # A cache first used at a small budget must not hand its smaller
        # neighbor lists to a later search at a larger budget.
        alphabet, moves = diagonal.base_alphabet, diagonal.base_moves
        square = ph(alphabet, "ABAB", {"A": "a", "B": "a"})
        empty = ph(alphabet, "", {})
        shared = NeighborCache(moves)
        equivalent(square, empty, moves, 4, 500_000, neighbor_cache=shared)
        reused = equivalent(square, empty, moves, 6, 500_000, neighbor_cache=shared)
        fresh = equivalent(square, empty, moves, 6, 500_000)
        assert reused.is_equivalent
        assert (reused.status, reused.path, reused.explored) == \
            (fresh.status, fresh.path, fresh.explored)


class TestBudgetHonestVerdicts:
    def test_side_closed_by_the_letter_budget_is_unknown(self, diagonal):
        # At 4 letters the square word's side closes after 56 states, but
        # only because the budget cut its insertions; at 6 it reduces.
        alphabet, moves = diagonal.base_alphabet, diagonal.base_moves
        square = ph(alphabet, "ABAB", {"A": "a", "B": "a"})
        empty = ph(alphabet, "", {})
        verdict = equivalent(square, empty, moves, 4, 100_000)
        assert verdict.status == "unknown" and "letter budget 4" in verdict.reason
        assert equivalent(square, empty, moves, 6, 100_000).is_equivalent

    def test_side_closed_without_a_cut_is_not_equivalent(self, one_symbol):
        # With Q and R empty no move needs room, so a closed side certifies.
        moves = MoveSystem(one_symbol, q=(), r=(), s=[("a", "a", "a")])
        square = ph(one_symbol, "ABAB", {"A": "a", "B": "a"})
        nested = ph(one_symbol, "ABBA", {"A": "a", "B": "a"})
        verdict = equivalent(square, nested, moves, 2, 1000)
        assert verdict.status == "not_equivalent" and "closed" in verdict.reason

    def test_parity_is_a_certificate_without_q(self, one_symbol):
        moves = MoveSystem(one_symbol, q=(), r=[("a", "a")], s=[("a", "a", "a")])
        aa = ph(one_symbol, "AA", {"A": "a"})
        empty = ph(one_symbol, "", {})
        verdict = equivalent(aa, empty, moves, max_letters=4, max_states=10_000)
        assert verdict.status == "not_equivalent" and "parit" in verdict.reason
        # With Q non-empty parity certifies nothing: AA reduces by M1.
        assert equivalent(aa, empty, MoveSystem(one_symbol, q=("a",), r=[("a", "a")]),
                          4, 10_000).is_equivalent


def _walk_pairs(name, k, n, count):
    # Seeded search inputs: an n-letter form and a 4-move walk from it,
    # kept inside n + 2 letters.
    data = builtin_data(name)
    moves, max_letters = data.base_moves, n + 2
    rng = random.Random(f"walk-pairs:{name}:{k}:{n}")
    sources = _forms(data.base_alphabet, k, [n])
    pairs = []
    for _ in range(count):
        start = phrase = rng.choice(sources).to_phrase(moves.alphabet)
        for _ in range(4):
            phrase = apply_move(phrase, rng.choice(
                find_move_sites(phrase, moves, ALL_KINDS, max_letters)))
        pairs.append((start, phrase, moves, max_letters))
    return pairs


WALK_SETS = [("curves", 1, 3), ("curves", 2, 2), ("diagonal", 1, 3),
             ("diagonal", 2, 2), ("links", 1, 3), ("links", 2, 2)]


def _closure_pairs(curves):
    # With Q and R empty no move needs room, so closed sides certify
    # NotEquivalent; pairs of three-letter curves forms mostly close.
    moves = MoveSystem(curves.base_alphabet, q=(), r=(), s=curves.base_moves.s)
    forms = _forms(curves.base_alphabet, 1, [3], sample=8)
    return [(a.to_phrase(moves.alphabet), b.to_phrase(moves.alphabet), moves, 3)
            for a, b in zip(forms, forms[1:])]


def _reduction_pairs(diagonal):
    # The criterion-5 reductions both ways round (side 2 then needs M3 as
    # well as M3inv), and the square word at a budget that cuts its
    # closure (Unknown).
    alpha, moves = diagonal.base_alphabet, diagonal.base_moves

    def word(letters):
        return ph(alpha, letters, dict.fromkeys(letters, "a"))

    shapes = [("ABCABC", "BAACCB", 7), ("ABCACB", "BAACBC", 7), ("ABACCB", "BACABC", 7),
              ("ABAB", "", 8)]
    pairs = [(word(a), word(b), moves, budget) for left, right, budget in shapes
             for a, b in ((left, right), (right, left))]
    return pairs + [(word("ABAB"), word(""), moves, 4)]


def _search_inputs(curves, diagonal):
    # (phrase1, phrase2, moves, max_letters, max_states); the small state
    # budget turns part of the walks into Unknown verdicts.
    inputs = [(*pair, states) for name, k, n in WALK_SETS
              for pair in _walk_pairs(name, k, n, 10) for states in (40, 500_000)]
    inputs += [(*pair, 500_000) for pair in _closure_pairs(curves) + _reduction_pairs(diagonal)]
    return inputs


def test_lazy_search_matches_the_retaining_search(curves, diagonal):
    statuses = Counter()
    for p1, p2, moves, max_letters, max_states in _search_inputs(curves, diagonal):
        lazy = equivalent(p1, p2, moves, max_letters, max_states)
        kept = equivalent(p1, p2, moves, max_letters, max_states,
                          neighbor_cache=NeighborCache(moves))
        assert lazy == kept, (p1, p2, max_letters, max_states)
        statuses[lazy.status] += 1
    assert statuses[EQUIVALENT] and statuses[NOT_EQUIVALENT] and statuses[UNKNOWN], statuses


def _replay_by_forms(form, path, alphabet):
    # The reference replay: each step on a fresh to_phrase of its source form.
    for step in path:
        result = canonical_form(apply_move(form.to_phrase(alphabet), step.site))
        if result != step.result:
            raise ConsistencyError(f"replay diverged at {step.site.kind}")
        form = step.result
    return form


def _renamed(phrase, rng):
    # The phrase with its letters renamed by a shuffle of rank letters and
    # other names, so a letter's name rarely matches its rank.
    pool = [*rank_letters(phrase.n_letters), "N1", "N2", "x"]
    rng.shuffle(pool)
    name = dict(zip(phrase.letters, pool))
    return Nanophrase(phrase.alphabet, [[name[ltr] for ltr in comp] for comp in phrase.components],
                      {name[ltr]: sym for ltr, sym in phrase.proj.items()})


def _forged(path, rng):
    # The path with one step's site forged: one letter renamed (to a rank
    # letter, possibly its own, or to an unknown name), or unknown symbols.
    index = rng.randrange(len(path))
    site = path[index].site
    if site.letters:
        letters = list(site.letters)
        letters[rng.randrange(len(letters))] = rng.choice([*rank_letters(6), "N1", "?"])
        site = replace(site, letters=tuple(letters))
    else:
        site = replace(site, symbols=("?",) * len(site.symbols))
    return path[:index] + (PathStep(site, path[index].result),) + path[index + 1:]


def _outcome(replay, start, path, alphabet):
    try:
        return replay(start, path, alphabet)
    except (StaleSite, ConsistencyError) as err:
        return type(err)


def test_replay_on_one_phrase_matches_the_replay_by_forms(curves, diagonal):
    # replay_path runs a path on one phrase, from a phrase (as equivalent
    # does), a form or a renamed phrase; the reference replays every step
    # on its source form's to_phrase.  Forged steps fail alike.
    rng = random.Random("replay")
    paths = stale = own_names = 0
    for p1, p2, moves, max_letters, max_states in _search_inputs(curves, diagonal):
        path = equivalent(p1, p2, moves, max_letters, max_states).path
        if not path:
            continue
        alpha, form = moves.alphabet, canonical_form(p1)
        assert _replay_by_forms(form, path, alpha) == canonical_form(p2)
        for start in (p1, form, _renamed(p1, rng)):
            assert replay_path(start, path, alpha) == canonical_form(p2)
        forged = _forged(path, rng)
        expected = _outcome(_replay_by_forms, form, forged, alpha)
        for start in (p1, form, _renamed(p1, rng)):
            assert _outcome(replay_path, start, forged, alpha) == expected, (p1, forged)
        paths += 1
        stale += expected is StaleSite
        # A first site naming the start phrase's own letters, not its
        # form's, is stale unless the names coincide.
        renamed, site = _renamed(p1, rng), path[0].site
        own = dict(zip(rank_letters(renamed.n_letters), renamed.letters))
        own_path = (PathStep(replace(site, letters=tuple(map(own.get, site.letters))),
                             path[0].result),) + path[1:]
        assert _outcome(replay_path, renamed, own_path, alpha) == \
            _outcome(_replay_by_forms, form, own_path, alpha), (renamed, own_path)
        own_names += site.letters != own_path[0].site.letters
    assert paths > 50 and stale > paths // 2 and own_names > 10, (paths, stale, own_names)


def _links(parents, key):
    # key, then each parent link back to its side's start.
    while key is not None:
        yield key
        key = parents[key]


def _full_scan_assembly(visited, meet, moves):
    # The reference path assembly: each step from a source key to the next
    # is the first of all the source's neighbours that is the next key, at
    # a budget that covers every visited key.
    keys = list(_links(visited[0], meet))[::-1] + list(_links(visited[1], meet))[1:]
    max_letters = max(ord(key[0]) for parents in visited for key in parents)
    cache = NeighborCache(moves)
    return tuple(
        PathStep(next(site for site, child in cache.within(source, max_letters) if child == target),
                 CanonicalForm.from_key(target))
        for source, target in zip(keys, keys[1:]))


def test_inverse_kind_assembly_matches_the_full_scan(monkeypatch, curves, diagonal):
    assemble = nanowords.moves._assemble_path
    kinds = Counter()

    def checked(visited, meet, moves):
        assert all(parent is None or type(parent) is str
                   for parents in visited for parent in parents.values())
        path = assemble(visited, meet, moves)
        assert path == _full_scan_assembly(visited, meet, moves)
        kinds.update(step.site.kind for step in path)
        return path

    monkeypatch.setattr(nanowords.moves, "_assemble_path", checked)
    for p1, p2, moves, max_letters, max_states in _search_inputs(curves, diagonal):
        equivalent(p1, p2, moves, max_letters, max_states)
    # Every letter-count change, and both transposition kinds, occur.
    assert set(kinds) == set(ALL_KINDS), kinds


@pytest.mark.parametrize("side", [1, 2])
def test_a_link_no_move_realizes_stops_the_assembly(curves, side):
    # ABAB and ABBA have two letters each, too few for M3 or M3inv, so no
    # move turns one into the other.  The one step runs square -> nested,
    # read from a side-1 or a side-2 link.
    alpha, moves = curves.base_alphabet, curves.base_moves
    proj = {"A": "a", "B": "a"}
    square = canonical_form(ph(alpha, "ABAB", proj)).key
    nested = canonical_form(ph(alpha, "ABBA", proj)).key
    if side == 1:
        visited, meet = ({square: None, nested: square}, {nested: None}), nested
    else:
        visited, meet = ({square: None}, {nested: None, square: nested}), square
    with pytest.raises(ConsistencyError, match="no move found while assembling a path"):
        _assemble_path(visited, meet, moves)


def _verdict_rule(p1, p2, moves, max_letters, max_states):
    # (status, reason, separator) as the search and the two row lists give
    # them: the search's verdict, unless a row differs.
    rows1, rows2 = invariant_lines(p1, moves), invariant_lines(p2, moves)
    differing = [name for (name, v1), (_name, v2) in zip(rows1, rows2) if v1 != v2]
    verdict = equivalent(p1, p2, moves, max_letters, max_states)
    if not differing:
        return verdict.status, verdict.reason, None
    assert not verdict.is_equivalent, (p1, p2)
    if verdict.status == UNKNOWN:
        return (NOT_EQUIVALENT, f"invariant {differing[0]} differs; search inconclusive "
                f"({verdict.reason})", differing[0])
    return NOT_EQUIVALENT, verdict.reason, differing[0]


def _separated_inputs(curves):
    # Consecutive two-letter curves forms, many of them apart in some row,
    # at a state budget too small to settle them, and a pair whose
    # component counts differ.
    alpha, moves = curves.base_alphabet, curves.base_moves
    forms = _forms(alpha, 1, [2])
    inputs = [(a.to_phrase(alpha), b.to_phrase(alpha), moves, 4, 40)
              for a, b in zip(forms, forms[1:])]
    proj = {"A": "a", "B": "a"}
    return inputs + [(ph(alpha, "ABAB", proj), ph(alpha, "AB|AB", proj), moves, 4, 40)]


def test_decide_applies_the_verdict_rule(curves, diagonal):
    seen = Counter()
    for p1, p2, moves, max_letters, max_states in (_search_inputs(curves, diagonal)
                                                   + _separated_inputs(curves)):
        verdict = decide(p1, p2, moves, None, max_letters, max_states)
        expected = _verdict_rule(p1, p2, moves, max_letters, max_states)
        assert (verdict.status, verdict.reason, verdict.separator) == expected, (p1, p2)
        seen[verdict.status, verdict.separator is not None,
             verdict.reason.startswith("invariant ")] += 1
    # Every status occurs, and a separated NotEquivalent comes both from an
    # inconclusive search and from the search's own certificate.
    assert set(seen) == {(EQUIVALENT, False, False), (UNKNOWN, False, False),
                         (NOT_EQUIVALENT, False, False), (NOT_EQUIVALENT, True, True),
                         (NOT_EQUIVALENT, True, False)}, seen


def test_decide_rejects_a_path_that_an_invariant_contradicts(monkeypatch, diagonal):
    real = nanowords.moves.invariant_lines
    calls = []

    def second_side_differs(word, moves, lifted=None):
        calls.append(word)
        rows = real(word, moves, lifted)
        return rows if len(calls) == 1 else [(name, value + "*") for name, value in rows]

    monkeypatch.setattr(nanowords.moves, "invariant_lines", second_side_differs)
    alpha = diagonal.base_alphabet
    square = ph(alpha, "ABAB", {"A": "a", "B": "a"})
    empty = Nanophrase(alpha, [()], {})
    assert equivalent(square, empty, diagonal.base_moves, 8, 500_000).is_equivalent
    with pytest.raises(ConsistencyError, match="search found an equivalence but invariant"):
        decide(square, empty, diagonal.base_moves, None, 8, 500_000)
    assert len(calls) == 2
