import itertools
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from nanowords import (
    ALL_KINDS,
    Alphabet,
    AlphabetMismatch,
    CanonicalForm,
    LetterCountError,
    NanowordError,
    Nanophrase,
    UnknownSymbol,
    apply_move,
    are_isomorphic,
    builtin_data,
    canonical_form,
    enumerate_nanophrases,
    find_move_sites,
    so_phrase,
    t_invariant,
    validate_nanophrase,
)
import nanowords
from nanowords.moves import _expand
from conftest import ph


class TestAlphabet:
    def test_involution_round_trip(self):
        alpha = Alphabet(("a", "b", "c", "d", "e"), {"a": "b", "c": "d"})
        for s in alpha.symbols:
            assert alpha.tau(alpha.tau(s)) == s

    def test_orbit_order_free_first_then_fixed(self):
        alpha = Alphabet(("x", "a", "b", "m"), {"a": "b"})
        assert alpha.orbits == (("a", "b"), ("m",), ("x",))
        assert alpha.n_free == 1 and alpha.n_fixed == 2
        assert alpha.representatives == ("a", "m", "x")
        assert alpha.orbit_index("b") == 1
        assert alpha.orbit_index("x") == 3

    def test_epsilon_signs(self):
        alpha = Alphabet(("a", "b", "m"), {"a": "b"})
        assert alpha.epsilon("a") == 1
        assert alpha.epsilon("b") == -1
        assert alpha.epsilon("m") == 1

    def test_non_involution_rejected(self):
        with pytest.raises(NanowordError):
            Alphabet(("a", "b", "c"), {"a": "b", "b": "c"})

    def test_tau_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            Alphabet(("a",), {"a": "z"})

    def test_value_equality(self):
        a1 = Alphabet(("a", "b"), {"a": "b"})
        a2 = Alphabet(("a", "b"), {"b": "a"})
        assert a1 == a2 and hash(a1) == hash(a2)


class TestValidate:
    def test_valid_two_component(self, ab_alphabet):
        p = validate_nanophrase(ab_alphabet, [("A", "B"), ("B", "A")],
                                {"A": "a", "B": "b"})
        assert p.k == 2 and p.n_letters == 2

    def test_letter_count_violations_all_reported(self, ab_alphabet):
        with pytest.raises(LetterCountError) as err:
            validate_nanophrase(ab_alphabet, [("A", "B", "A", "A")],
                                {"A": "a", "B": "a"})
        assert err.value.counts == {"A": 3, "B": 1}

    def test_single_violation(self, ab_alphabet):
        with pytest.raises(LetterCountError) as err:
            validate_nanophrase(ab_alphabet, [("A", "B", "A")], {"A": "a", "B": "a"})
        assert err.value.counts == {"B": 1}

    def test_empty_components_are_valid(self, ab_alphabet):
        p = validate_nanophrase(ab_alphabet, [(), ()], {})
        assert p.k == 2 and p.n_letters == 0

    def test_unknown_projection_target(self, ab_alphabet):
        with pytest.raises(UnknownSymbol):
            validate_nanophrase(ab_alphabet, [("A", "A")], {"A": "z"})

    def test_missing_projection(self, ab_alphabet):
        with pytest.raises(UnknownSymbol):
            validate_nanophrase(ab_alphabet, [("A", "A")], {})


class TestCanonicalForm:
    def test_relabel_by_first_occurrence(self, ab_alphabet):
        p = ph(ab_alphabet, "BAAB", {"A": "a", "B": "a"})
        cf = canonical_form(p)
        assert cf.pattern == ((1, 2, 2, 1),)
        assert cf.proj_seq == ("a", "a")
        assert cf.serialize() == "1 2 2 1 ; a a"

    def test_abba_isomorphic_to_baab(self, ab_alphabet):
        # Independent check: the explicit bijection A<->B maps one onto the other.
        baab = ph(ab_alphabet, "BAAB", {"A": "a", "B": "a"})
        abba = ph(ab_alphabet, "ABBA", {"A": "a", "B": "a"})
        swap = {"A": "B", "B": "A"}
        assert tuple(swap[l] for l in baab.flat) == abba.flat
        assert all(baab.proj[l] == abba.proj[swap[l]] for l in baab.letters)
        assert are_isomorphic(baab, abba)

    def test_boundary_markers_distinguish(self, ab_alphabet):
        split = ph(ab_alphabet, "A|A", {"A": "a"})
        joined = ph(ab_alphabet, "AA|", {"A": "a"})
        assert canonical_form(split).serialize() == "1 | 1 ; a"
        assert not are_isomorphic(split, joined)

    def test_abab_not_isomorphic_to_abba(self, ab_alphabet):
        p1 = ph(ab_alphabet, "ABAB", {"A": "a", "B": "a"})
        p2 = ph(ab_alphabet, "ABBA", {"A": "a", "B": "a"})
        assert not are_isomorphic(p1, p2)

    def test_alphabet_mismatch(self, ab_alphabet, one_symbol):
        p1 = ph(ab_alphabet, "AA", {"A": "a"})
        p2 = ph(one_symbol, "AA", {"A": "a"})
        with pytest.raises(AlphabetMismatch):
            are_isomorphic(p1, p2)

    def test_idempotent_on_enumeration(self, ab_alphabet):
        for n in range(4):
            for p in enumerate_nanophrases(ab_alphabet, n, 2):
                cf = canonical_form(p)
                again = canonical_form(cf.to_phrase(ab_alphabet))
                assert cf == again


# (pattern, proj_seq) pairs covering empty components in every place and
# ranks past one letter (26) and past one byte (255).
_LONG = tuple(range(1, 301))
CONTRACT_FORMS = [
    (((),), ()),
    (((), (), ()), ()),
    (((), (1, 1)), ("a",)),
    (((1, 2, 1), (), (2, 3, 3)), ("a", "b", "a")),
    (((1, 1), ()), ("b",)),
    ((_LONG + _LONG[::-1],), ("a",) * 150 + ("b",) * 150),
    ((_LONG, (), _LONG), ("b", "a") * 150),
]


class TestCanonicalFormContract:
    @pytest.mark.parametrize("pattern,proj_seq", CONTRACT_FORMS)
    def test_pattern_and_proj_seq_round_trip(self, ab_alphabet, pattern, proj_seq):
        form = CanonicalForm(pattern, list(proj_seq))
        assert form.pattern == pattern and form.proj_seq == proj_seq
        assert form.k == len(pattern) and form.n_letters == len(proj_seq)
        phrase = form.to_phrase(ab_alphabet)
        assert phrase.k == form.k and phrase.n_letters == form.n_letters
        again = canonical_form(phrase)
        assert again == form and hash(again) == hash(form)
        assert again.pattern == pattern and again.proj_seq == proj_seq
        # The key: the letter count, the packed ranks, one code per letter.
        assert again.key == form.key and CanonicalForm.from_key(form.key) == form
        assert ord(form.key[0]) == len(proj_seq)
        assert len(form.key) == 1 + len(form.packed) + len(proj_seq)
        tokens = []
        for index, comp in enumerate(pattern):
            tokens += ["|"] * bool(index) + [str(r) for r in comp]
        assert form.serialize() == f'{" ".join(tokens)} ; {" ".join(proj_seq)}'.strip()

    def test_long_word_names_and_serialization(self, ab_alphabet):
        form = CanonicalForm((_LONG + _LONG[::-1],), ("a",) * 300)
        phrase = form.to_phrase(ab_alphabet)
        assert phrase.letters[:27] == tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ") + ("L27",)
        assert phrase.letters[-1] == "L300"
        assert form.serialize().startswith("1 2 3 ") and " 256 257 " in form.serialize()

    def test_tuple_canonical_form_and_kernel_forms_agree(self, curves):
        moves = curves.base_moves
        parent = canonical_form(ph(curves.base_alphabet, "ABACBC|DEED",
                                   {"A": "a", "B": "a", "C": "a", "D": "a", "E": "b"}))
        children = tuple((site, CanonicalForm.from_key(child)) for site, child in _expand(
            parent.key, moves, parent.n_letters + 2))
        assert [site for site, _child in children] == \
            find_move_sites(parent, moves, ALL_KINDS, parent.n_letters + 2)
        assert {site.kind for site, _child in children} == set(ALL_KINDS) - {"M3inv"}
        phrase = parent.to_phrase(curves.base_alphabet)
        for site, child in children:
            reference = canonical_form(apply_move(phrase, site))
            rebuilt = CanonicalForm(child.pattern, child.proj_seq)
            assert child == reference == rebuilt
            assert hash(child) == hash(reference) == hash(rebuilt)
            assert len({child, reference, rebuilt}) == 1

    def test_kernel_past_one_byte_of_ranks(self, curves):
        # An insertion at the front of a 300-letter form shifts every rank
        # past 255.
        moves = curves.base_moves
        parent = CanonicalForm((_LONG + _LONG[::-1],), ("a", "b") * 150)
        sites = find_move_sites(parent, moves, ("M1ins",), 301)[:4]
        phrase = parent.to_phrase(curves.base_alphabet)
        matched = find_move_sites(parent, moves)
        assert matched == find_move_sites(phrase, moves)
        assert matched[0].letters == ("L300",)
        kernel = _expand(parent.key, moves, 301, ("M1ins",))
        for site, (kernel_site, child) in zip(sites, kernel):
            assert kernel_site == site
            child = CanonicalForm.from_key(child)
            reference = canonical_form(apply_move(phrase, site))
            assert child == reference and hash(child) == hash(reference)
            assert max(map(max, child.pattern)) == 301

    def test_immutable(self):
        form = CanonicalForm(((1, 1),), ("a",))
        for name in ("packed", "proj_seq", "pattern", "other"):
            with pytest.raises(AttributeError):
                setattr(form, name, ())
        with pytest.raises(AttributeError):
            del form.packed
        assert form == CanonicalForm(((1, 1),), ("a",))

    @pytest.mark.parametrize("pattern", [((0,),), ((1, 0, 1),), ((1,), (-1,))])
    def test_ranks_must_be_positive(self, pattern):
        # Rank 0 would read as a component boundary in the packed string.
        with pytest.raises(ValueError):
            CanonicalForm(pattern, ("a",))

    def test_equal_only_to_forms(self):
        form = CanonicalForm(((1, 2, 2, 1), ()), ("a", "b"))
        for other in (form.pattern, form.packed, (form.pattern, form.proj_seq),
                      (form.packed, form.proj_seq), form.proj_seq, form.key):
            assert form != other and other != form
            assert not form == other
        assert form != CanonicalForm(((1, 2, 2, 1), ()), ("b", "a"))
        assert form != CanonicalForm(((1, 2, 2, 1),), ("a", "b"))
        assert form != CanonicalForm(((), (1, 2, 2, 1)), ("a", "b"))

    def test_repr_is_readable(self):
        form = CanonicalForm(((1, 2, 2, 1), ()), ("a", "b"))
        assert repr(form) == \
            "CanonicalForm(pattern=((1, 2, 2, 1), ()), proj_seq=('a', 'b'))"
        assert str(form) == "1 2 2 1 | ; a b"

    def test_pickle_round_trip(self):
        form = CanonicalForm(((1, 2), (2, 1)), ("a", "b"))
        again = pickle.loads(pickle.dumps(form))
        assert again == form and hash(again) == hash(form)
        assert form not in {form.key} and form.key not in {form}

    def test_symbols_first_seen_in_different_orders(self):
        # Lifted names, each first met in a different place of a form.
        names = ["s_1_2", "s_2_2", "s_1_1", "t_1_2"]
        pattern = ((1, 2, 3, 4, 4, 3, 2, 1),)
        forms = [CanonicalForm(pattern, names[i:] + names[:i]) for i in range(len(names))]
        forms += [CanonicalForm(pattern, names[::-1])]
        for form, proj_seq in zip(forms, [names[i:] + names[:i] for i in range(4)]
                                  + [names[::-1]]):
            assert form.proj_seq == tuple(proj_seq)
            assert CanonicalForm(form.pattern, form.proj_seq) == form
        assert len(set(forms)) == len(forms)
        alphabet = Alphabet(tuple(names))
        phrase = Nanophrase(alphabet, [tuple("ABCDDCBA")], dict(zip("ABCD", names[::-1])))
        assert canonical_form(phrase) == forms[-1]
        assert canonical_form(phrase).serialize() == "1 2 3 4 4 3 2 1 ; t_1_2 s_1_1 s_2_2 s_1_2"

    def test_pickles_load_in_a_process_with_other_codes(self):
        # Codes never leave the process: the other process registers ten
        # other symbols, then these in the opposite order, before it
        # unpickles, so its keys differ from this process's.
        symbols = ("a_1_2", "a_1_1", "b", "a_2_2")
        specs = [(((1, 2, 1), (), (2, 3, 3)), symbols[:3]), (((), (1, 1)), symbols[3:]),
                 (((),), ())]
        forms = [CanonicalForm(pattern, proj_seq) for pattern, proj_seq in specs]
        script = (
            "import pickle, sys\n"
            "from nanowords import CanonicalForm\n"
            "CanonicalForm(((1, 1),) * 10, [f'other{i}' for i in range(10)])\n"
            f"CanonicalForm(((1, 1, 2, 2, 3, 3, 4, 4),), {symbols[::-1]!r})\n"
            "forms = pickle.loads(sys.stdin.buffer.read())\n"
            f"built = [CanonicalForm(pattern, proj_seq) for pattern, proj_seq in {specs!r}]\n"
            "assert forms == built and [hash(f) for f in forms] == [hash(f) for f in built]\n"
            "for form in forms:\n"
            "    print(form.serialize(), ascii(form.key), sep='\\t')\n")
        package_root = os.path.dirname(os.path.dirname(nanowords.__file__))
        done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(forms),
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert done.returncode == 0, done.stderr.decode()
        texts, keys = zip(*(line.split("\t") for line in done.stdout.decode().splitlines()))
        assert list(texts) == [form.serialize() for form in forms]
        assert list(keys) != [ascii(form.key) for form in forms]

    def test_concurrent_first_use_gives_one_code_per_symbol(self):
        # Eight threads meet new symbols at once: each owns 40, and all
        # share 40, each thread in its own order.
        tag = f"thread{random.randrange(10**9)}"
        shared = [f"{tag}_shared_{j}" for j in range(40)]
        start = threading.Barrier(8, timeout=30)
        results = [None] * 8

        def work(index):
            symbols = shared + [f"{tag}_own{index}_{j}" for j in range(40)]
            random.Random(index).shuffle(symbols)
            start.wait()
            results[index] = {s: CanonicalForm(((1, 1),), (s,)) for s in symbols}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        codes = {}
        for forms in results:
            for symbol, form in forms.items():
                assert form.proj_seq == (symbol,)
                assert codes.setdefault(symbol, form.key[-1]) == form.key[-1]
        assert len(codes) == 40 + 8 * 40
        assert len(set(codes.values())) == len(codes)
        for symbol in shared:
            built = {forms[symbol] for forms in results}
            assert len(built) == 1 and built == {CanonicalForm(((1, 1),), (symbol,))}


def _bijection_oracle(p1, p2):
    """Isomorphism by brute force over all letter bijections."""
    if p1.alphabet != p2.alphabet or len(p1.letters) != len(p2.letters):
        return False
    sizes1 = tuple(len(c) for c in p1.components)
    sizes2 = tuple(len(c) for c in p2.components)
    if sizes1 != sizes2:
        return False
    for image in itertools.permutations(p2.letters):
        phi = dict(zip(p1.letters, image))
        if all(p1.proj[l] == p2.proj[phi[l]] for l in p1.letters) and \
                tuple(phi[l] for l in p1.flat) == p2.flat:
            return True
    return False


def test_isomorphism_matches_bijection_oracle(one_symbol, ab_alphabet):
    for alphabet, n, k in ((one_symbol, 2, 1), (ab_alphabet, 2, 2)):
        sample = list(enumerate_nanophrases(alphabet, n, k))
        for p1 in sample:
            for p2 in sample:
                assert are_isomorphic(p1, p2) == _bijection_oracle(p1, p2)


@given(st.permutations(["A", "B", "C", "W", "X", "Y"]))
def test_canonical_form_ignores_letter_names(names):
    # Renaming letters never changes the canonical form.
    alpha = Alphabet(("a", "b"), {"a": "b"})
    base = Nanophrase(alpha, [("A", "B", "C", "A"), ("C", "B")],
                      {"A": "a", "B": "b", "C": "a"})
    rename = dict(zip(("A", "B", "C"), names[:3]))
    other = Nanophrase(alpha, [tuple(rename[l] for l in comp) for comp in base.components],
                       {rename[l]: s for l, s in base.proj.items()})
    assert canonical_form(base) == canonical_form(other)


class TestEnumeration:
    def test_empty_word(self, one_symbol):
        assert len(list(enumerate_nanophrases(one_symbol, 0, 1))) == 1

    def test_single_letter(self, one_symbol):
        phrases = list(enumerate_nanophrases(one_symbol, 1, 1))
        assert len(phrases) == 1
        assert phrases[0].flat == ("A", "A")

    def test_two_letters_three_patterns(self, one_symbol):
        forms = [canonical_form(p).serialize()
                 for p in enumerate_nanophrases(one_symbol, 2, 1)]
        assert forms == ["1 1 2 2 ; a a", "1 2 1 2 ; a a", "1 2 2 1 ; a a"]

    def test_no_duplicates(self, ab_alphabet):
        for n, k in ((2, 2), (3, 1)):
            forms = [canonical_form(p) for p in enumerate_nanophrases(ab_alphabet, n, k)]
            assert len(forms) == len(set(forms))

    def test_matches_generate_and_dedupe_oracle(self, ab_alphabet, one_symbol):
        # Oracle: place letters at all position choices, split, project, dedupe.
        for alphabet, n, k in ((one_symbol, 3, 1), (ab_alphabet, 2, 2)):
            letters = [chr(65 + i) for i in range(n)]
            oracle = set()
            for arrangement in set(itertools.permutations(letters + letters)):
                for cuts in itertools.combinations_with_replacement(range(2 * n + 1), k - 1):
                    bounds = (0,) + cuts + (2 * n,)
                    comps = [arrangement[bounds[i]:bounds[i + 1]] for i in range(k)]
                    for assign in itertools.product(alphabet.symbols, repeat=n):
                        proj = dict(zip(letters, assign))
                        oracle.add(canonical_form(Nanophrase(alphabet, comps, proj)))
            mine = set(canonical_form(p) for p in enumerate_nanophrases(alphabet, n, k))
            assert mine == oracle

    def test_isomorphism_is_equivalence_relation(self, one_symbol):
        sample = list(enumerate_nanophrases(one_symbol, 3, 1))
        forms = [canonical_form(p) for p in sample]
        for cf in forms:
            assert cf == cf
        for c1, c2 in itertools.combinations(forms, 2):
            assert (c1 == c2) == (c2 == c1)
        # Transitivity holds trivially for equality of canonical forms;
        # spot-check via a renamed copy landing in the same class.
        renamed = Nanophrase(one_symbol, [("X", "Y", "X", "Y", "Z", "Z")],
                             {"X": "a", "Y": "a", "Z": "a"})
        matches = [cf for cf in forms if cf == canonical_form(renamed)]
        assert len(matches) == 1


def _fresh_copy(phrase):
    return Nanophrase(phrase.alphabet, phrase.components, dict(phrase.proj))


def _public_fields(phrase):
    return (phrase.alphabet, phrase.components, phrase.proj, list(phrase.proj),
            phrase.letters, phrase.flat, phrase.comp_of, phrase.k, phrase.n_letters,
            [phrase.occurrences(ltr) for ltr in phrase.letters],
            [phrase.component_pair(ltr) for ltr in phrase.letters])


@pytest.mark.parametrize("name,n,k", [("curves", 3, 2), ("links", 2, 3),
                                      ("diagonal", 3, 3), ("curves", 0, 2)])
def test_enumerated_phrases_match_fresh_phrases(name, n, k):
    # Enumerated phrases of one pattern and distribution share their word
    # structure; each must still read as a freshly validated phrase, and
    # the So/T memo must not carry over from a sibling projection.
    data = builtin_data(name)
    moves = data.base_moves
    stream = []
    for phrase in enumerate_nanophrases(data.base_alphabet, n, k):
        fresh = _fresh_copy(phrase)
        assert _public_fields(phrase) == _public_fields(fresh)
        assert so_phrase(phrase, moves) == so_phrase(fresh, moves)
        assert t_invariant(phrase, moves) == t_invariant(fresh, moves)
        stream.append(phrase)
    pool = list(enumerate_nanophrases(data.base_alphabet, n, k))
    for phrase in reversed(pool):
        fresh = _fresh_copy(phrase)
        assert t_invariant(phrase, moves) == t_invariant(fresh, moves)
        assert so_phrase(phrase, moves) == so_phrase(fresh, moves)
    assert len({id(p.proj) for p in pool}) == len(pool)
    assert [_public_fields(p) for p in pool] == [_public_fields(p) for p in stream]
