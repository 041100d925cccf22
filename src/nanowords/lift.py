"""Component-indexed alphabets and the word/phrase correspondence.

A k-component phrase over a base alphabet can be flattened to a single
word whose projections additionally record, as a subscript pair i<=j,
which components each letter's two occurrences touch.  The flattening
phi is injective up to the gated moves; its image is cut out by four
order conditions, and psi reconstructs the phrase from any word
satisfying them.  Built-in base systems and their lifts are provided
under the names curves, links, ornaments, and diagonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Alphabet,
    AlphabetMismatch,
    ConsistencyError,
    MoveSystem,
    NanowordError,
    Nanophrase,
)


class UnknownName(NanowordError):
    """No built-in homotopy data under the requested name."""


class ProjectionNotLifted(NanowordError):
    """A projection value is not a symbol of the lifted alphabet."""


@dataclass(frozen=True)
class ConditionViolation:
    """The ordered letter pair and which of the four order conditions failed."""

    letter_a: str
    letter_b: str
    condition: int


class ConditionsViolated(NanowordError):
    def __init__(self, violation):
        self.violation = violation
        super().__init__(
            f"order conditions violated: pair ({violation.letter_a},"
            f"{violation.letter_b}), condition ({violation.condition})")


class LiftedAlphabet:
    """Symbols s_i_j for s in the base and 1 <= i <= j <= k.

    tau acts on the base part only, so subscripts are preserved.  The
    derived move data is: Q = diagonal subscripts {s_i_i}, R = the graph
    of the lifted tau, and S the chained lift of a base triple set.
    """

    __slots__ = ("base", "k", "alphabet", "_parts", "_names")

    def __init__(self, base, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.base = base
        self.k = k
        symbols, parts, names = [], {}, {}
        for s in base.symbols:
            for i in range(1, k + 1):
                for j in range(i, k + 1):
                    name = f"{s}_{i}_{j}"
                    symbols.append(name)
                    parts[name] = (s, i, j)
                    names[(s, i, j)] = name
        tau = {name: names[(base.tau(s), i, j)] for name, (s, i, j) in parts.items()}
        self.alphabet = Alphabet(symbols, tau)
        self._parts = parts
        self._names = names

    def symbol(self, base_symbol, i, j):
        try:
            return self._names[(base_symbol, i, j)]
        except KeyError:
            raise ProjectionNotLifted(
                f"no lifted symbol for ({base_symbol!r}, {i}, {j})") from None

    def part(self, symbol):
        """Decompose a lifted symbol into (base symbol, i, j)."""
        try:
            return self._parts[symbol]
        except KeyError:
            raise ProjectionNotLifted(f"{symbol!r} is not a lifted symbol") from None

    def q_symbols(self):
        return frozenset(name for name, (s, i, j) in self._parts.items() if i == j)

    def lift_triples(self, triples):
        """Chained-subscript lift of a base triple set."""
        out = set()
        for (a, b, c) in triples:
            for i in range(1, self.k + 1):
                for j in range(i, self.k + 1):
                    for l in range(j, self.k + 1):
                        out.add((self._names[(a, i, j)],
                                 self._names[(b, i, l)],
                                 self._names[(c, j, l)]))
        return frozenset(out)

    def diagonal_triples(self):
        """Lift of the base diagonal: {(a_ij, a_il, a_jl)}."""
        return self.lift_triples(diagonal_triples(self.base))

    def __eq__(self, other):
        return (isinstance(other, LiftedAlphabet)
                and self.base == other.base and self.k == other.k)

    def __hash__(self):
        return hash((self.base, self.k))

    def __repr__(self):
        return f"LiftedAlphabet(base={self.base!r}, k={self.k})"


def lift_alphabet(base, s_triples, k):
    """The lifted alphabet and its derived move system (Q, R, S lifts)."""
    lifted = LiftedAlphabet(base, k)
    moves = MoveSystem(lifted.alphabet, q=lifted.q_symbols(), r=lifted.alphabet.tau_graph,
                       s=lifted.lift_triples(s_triples))
    return lifted, moves


def phi(phrase, lifted=None):
    """Flatten a phrase to a one-component word over the lifted alphabet.

    The letter set is unchanged; each letter's new projection carries its
    base symbol subscripted by the components of its two occurrences.
    """
    if lifted is None:
        lifted = LiftedAlphabet(phrase.alphabet, phrase.k)
    elif lifted.base != phrase.alphabet or lifted.k != phrase.k:
        raise AlphabetMismatch("lifted alphabet does not match the phrase")
    proj = {ltr: lifted.symbol(phrase.proj[ltr], *phrase.component_pair(ltr))
            for ltr in phrase.letters}
    return Nanophrase(lifted.alphabet, (phrase.flat,), proj, validate=False)


def _require_lifted_word(word, lifted):
    if word.alphabet != lifted.alphabet:
        raise ProjectionNotLifted("word is not projected into the lifted alphabet")
    if word.k != 1:
        raise NanowordError("expected a one-component word")


def _labels(word, lifted):
    """Per position, its letter's subscript m at a first occurrence, n at a second."""
    _require_lifted_word(word, lifted)
    labels = []
    for pos, ltr in enumerate(word.flat):
        _s, m, n = lifted.part(word.proj[ltr])
        labels.append(m if word.occurrences(ltr)[0] == pos else n)
    return labels


def check_conditions(word, lifted):
    """First violated order condition, or None when the word is liftable.

    A letter with subscript pair (m, n) is labelled m at its first
    occurrence and n at its second (`_labels`).  For an ordered letter
    pair (A, B), condition c takes the c-th of the occurrence pairs
    (first, first), (first, second), (second, first), (second, second)
    of A and B, and fails when the earlier position of the two carries
    the larger label.  Together the conditions say that the labels never
    decrease along the word, which is checked first; the scan over
    letter pairs, in first-occurrence order, only names the violation.
    """
    labels = _labels(word, lifted)
    if all(a <= b for a, b in zip(labels, labels[1:])):
        return None
    for a, b in itertools.permutations(word.letters, 2):
        pairs = itertools.product(word.occurrences(a), word.occurrences(b))
        for condition, (p, q) in enumerate(pairs, 1):
            if p < q and labels[p] > labels[q]:
                return ConditionViolation(a, b, condition)
    raise ConsistencyError("component labels decrease but no order condition fails")


def psi(word, lifted):
    """Rebuild the k-component phrase from a condition-satisfying word.

    Each position gets the component index read off its letter's
    subscripts (first occurrence: the smaller one; second: the larger).
    The order conditions make these labels nondecreasing along the word,
    so cutting at increases, with empty components for skipped indices,
    yields the unique phrase that flattens back to the word.
    """
    labels = _labels(word, lifted)
    if any(a > b for a, b in zip(labels, labels[1:])):
        raise ConditionsViolated(check_conditions(word, lifted))
    components = [[] for _ in range(lifted.k)]
    for pos, label in enumerate(labels):
        components[label - 1].append(word.flat[pos])
    proj = {ltr: lifted.part(word.proj[ltr])[0] for ltr in word.letters}
    return Nanophrase(lifted.base, components, proj, validate=False)


@dataclass(frozen=True)
class BuiltinData:
    """A base alphabet and system together with their order-k lift."""

    name: str
    base_alphabet: Alphabet
    base_moves: MoveSystem
    lifted: LiftedAlphabet
    lifted_moves: MoveSystem


BUILTIN_NAMES = ("curves", "links", "ornaments", "diagonal")

_CURVES_TRIPLES = frozenset({("a", "a", "a"), ("b", "b", "b")})


def _links_triples():
    out = set()
    for x in ("a", "b"):
        for sign, other in (("+", "-"), ("-", "+")):
            p, m = f"{x}{sign}", f"{x}{other}"
            out.update({(p, p, p), (p, p, m), (m, p, p)})
    return frozenset(out)


def diagonal_triples(alphabet):
    """The diagonal triple set {(s, s, s)} of an alphabet."""
    return frozenset((s, s, s) for s in alphabet.symbols)


def builtin_data(name, k=1):
    """Named base systems with their order-k lifts.

    curves: {a, b} with tau(a)=b and the diagonal triples.
    links: {a+, a-, b+, b-} with tau(a+-)=b-+ and twelve triples.
    diagonal: the one-symbol alphabet {a} with tau = id and {(a,a,a)}.
    ornaments: the curves lift with the distinct-subscript triples removed.
    """
    if name == "curves" or name == "ornaments":
        base = Alphabet(("a", "b"), {"a": "b"})
        triples = _CURVES_TRIPLES
    elif name == "links":
        base = Alphabet(("a+", "a-", "b+", "b-"), {"a+": "b-", "a-": "b+"})
        triples = _links_triples()
    elif name == "diagonal":
        base = Alphabet(("a",))
        triples = frozenset({("a", "a", "a")})
    else:
        raise UnknownName(f"no built-in homotopy data named {name!r}")
    base_moves = MoveSystem.standard(base, triples)
    lifted, lifted_moves = lift_alphabet(base, triples, k)
    if name == "ornaments":
        # Chained triples (x_i_j, y_i_l, z_j_l) whose indices i < j < l
        # are all distinct are dropped.
        kept = []
        for triple in lifted_moves.s:
            (_x, i, j), (_y, _i, l) = lifted.part(triple[0]), lifted.part(triple[1])
            if not i < j < l:
                kept.append(triple)
        lifted_moves = MoveSystem(lifted.alphabet, q=lifted_moves.q, r=lifted_moves.r, s=kept)
    return BuiltinData(name, base, base_moves, lifted, lifted_moves)
