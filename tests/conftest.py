import random

import pytest

from nanowords import (Alphabet, Nanophrase, apply_move, builtin_data, canonical_form,
                       find_move_sites)


def ph(alphabet, spec, proj):
    """Build a phrase from a compact spec like 'AB|BA' (one char per letter)."""
    comps = [tuple(part.strip()) for part in spec.split("|")]
    return Nanophrase(alphabet, comps, proj)


def grown_forms(moves, k, count, seed):
    """Seeded words of 10 to 20 letters, grown from the empty phrase by random insertion moves."""
    rng = random.Random(f"grow:{seed}:{k}")
    forms = []
    for _ in range(count):
        phrase = Nanophrase(moves.alphabet, [()] * k, {})
        target = rng.randint(10, 20)
        while phrase.n_letters < target:
            kind = "M2ins" if target - phrase.n_letters >= 2 and rng.random() < 0.5 \
                else "M1ins"
            sites = find_move_sites(phrase, moves, (kind,), target)
            phrase = apply_move(phrase, rng.choice(sites))
        forms.append(canonical_form(phrase))
    return forms


@pytest.fixture
def curves():
    return builtin_data("curves")


@pytest.fixture
def links():
    return builtin_data("links")


@pytest.fixture
def diagonal():
    return builtin_data("diagonal")


@pytest.fixture
def ab_alphabet():
    return Alphabet(("a", "b"), {"a": "b"})


@pytest.fixture
def one_symbol():
    return Alphabet(("a",))
