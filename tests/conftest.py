import random
from itertools import product
from types import SimpleNamespace

import pytest

from nanowords import (Alphabet, MoveSystem, Nanophrase, apply_move, builtin_data,
                       canonical_form, find_move_sites, lift_alphabet)


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


_ALPHABETS = (Alphabet(("a", "b"), {"a": "b"}), Alphabet(("a", "b")), Alphabet(("a",)))


def random_homotopy_data(rng, index, k):
    """Q the whole alphabet, R the graph of tau and a random S, lifted to k components.

    The alphabet is a<->b, {a, b} fixed or {a}, in turn; each triple of
    its cube is in S with probability 0.4.
    """
    alphabet = _ALPHABETS[index % 3]
    s = [t for t in product(alphabet.symbols, repeat=3) if rng.random() < 0.4]
    lifted, lifted_moves = lift_alphabet(alphabet, s, k)
    return SimpleNamespace(k=k, base_alphabet=alphabet,
                           base_moves=MoveSystem.standard(alphabet, s),
                           lifted=lifted, lifted_moves=lifted_moves)


def random_systems(count, k=2):
    """The first `count` distinct seeded random homotopy data systems lifted to k components.

    Draws go through the alphabets in turn; a draw whose (alphabet, S)
    repeats an earlier system is skipped, and the next alphabet drawn.
    """
    rng = random.Random("homotopy-data" if k == 2 else f"homotopy-data-k{k}")
    systems, index = [], 0
    while len(systems) < count:
        data = random_homotopy_data(rng, index, k)
        if all(data.base_moves != other.base_moves for other in systems):
            systems.append(data)
        index += 1
    return systems


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
