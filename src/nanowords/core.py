"""Alphabets with involution, nanophrases, canonical forms, enumeration.

A nanophrase is a sequence of component words over a letter set in which
every letter occurs exactly twice overall, together with a projection of
letters into a base alphabet carrying an involution.  Two nanophrases
are isomorphic when a letter bijection preserves the projections and the
word structure; this is decided by relabeling letters 1..n in order of
first occurrence and comparing the results.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from functools import lru_cache


class NanowordError(Exception):
    """Base class for domain errors raised by this package."""


class ConsistencyError(Exception):
    """An internal cross-check failed (never a user-input problem)."""


class LetterCountError(NanowordError):
    """Some letter does not occur exactly twice."""

    def __init__(self, counts):
        self.counts = dict(counts)
        detail = ", ".join(f"{ltr}: {c} != 2" for ltr, c in sorted(self.counts.items()))
        super().__init__(f"every letter must occur exactly twice ({detail})")


class UnknownSymbol(NanowordError):
    """A projection or move-system member references an unknown symbol."""

    def __init__(self, items, where="projection"):
        self.items = sorted(str(i) for i in items)
        super().__init__(f"unknown symbols in {where}: {', '.join(self.items)}")


class AlphabetMismatch(NanowordError):
    """Operands do not share the same alphabet."""


class Alphabet:
    """A finite symbol set together with an involution tau.

    The orbits of tau are kept in a canonical order: free orbits
    (size two) come first, fixed points last, each run sorted by its
    representative.  The representative of a free orbit is its
    lexicographically smaller member.  Orbit indices are 1-based:
    1..n_free are free, n_free+1..n_free+n_fixed are fixed points.
    `tau_graph` is the graph {(s, tau(s))}, the classical R.
    """

    __slots__ = ("symbols", "orbits", "representatives", "n_free", "n_fixed",
                 "tau_graph", "_tau", "_orbit_index", "_epsilon", "_key", "_hash")

    def __init__(self, symbols, tau=None):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise NanowordError("alphabet symbols must be distinct")
        mapping = {}
        for x, y in dict(tau or {}).items():
            for a, b in ((x, y), (y, x)):
                if mapping.setdefault(a, b) != b:
                    raise NanowordError(f"conflicting tau assignments for {a!r}")
        unknown = set(mapping) - set(symbols)
        if unknown:
            raise UnknownSymbol(unknown, where="tau")
        full = {s: mapping.get(s, s) for s in symbols}
        for s in symbols:
            if full[full[s]] != s:
                raise NanowordError(f"tau is not an involution at {s!r}")
        self.symbols = symbols
        self._tau = full
        self.tau_graph = frozenset(full.items())

        free, fixed, seen = [], [], set()
        for s in sorted(symbols):
            if s in seen:
                continue
            t = full[s]
            if t == s:
                fixed.append((s,))
            else:
                free.append((min(s, t), max(s, t)))
            seen.update((s, t))
        free.sort()
        fixed.sort()
        self.orbits = tuple(free) + tuple(fixed)
        self.representatives = tuple(o[0] for o in self.orbits)
        self.n_free = len(free)
        self.n_fixed = len(fixed)
        self._orbit_index = {s: i + 1 for i, orbit in enumerate(self.orbits) for s in orbit}
        self._epsilon = {s: 1 if s == orbit[0] else -1 for orbit in self.orbits for s in orbit}
        self._key = (symbols, tuple(sorted(full.items())))
        self._hash = hash(self._key)

    def tau(self, symbol):
        return self._tau[symbol]

    def tau_pairs(self):
        """Free orbits as (representative, partner) pairs, canonical order."""
        return self.orbits[:self.n_free]

    def orbit_index(self, symbol):
        """1-based canonical orbit index of a symbol."""
        return self._orbit_index[symbol]

    def epsilon(self, symbol):
        """+1 on orbit representatives and fixed points, -1 otherwise."""
        return self._epsilon[symbol]

    def __contains__(self, symbol):
        return symbol in self._tau

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"


class MoveSystem:
    """The data (Q, R, S) gating the three rewrite moves.

    Q is a symbol subset (doubled-letter deletion), R a set of ordered
    symbol pairs (interlocked-pair deletion), S a set of ordered symbol
    triples (triple transposition).  The classical setting takes
    Q = alphabet and R = the graph of tau.
    """

    __slots__ = ("alphabet", "q", "r", "s", "r_is_graph_of_tau")

    def __init__(self, alphabet, q=(), r=(), s=()):
        self.alphabet = alphabet
        self.q = frozenset(q)
        self.r = frozenset(tuple(p) for p in r)
        self.s = frozenset(tuple(t) for t in s)
        if any(len(p) != 2 for p in self.r) or any(len(t) != 3 for t in self.s):
            raise NanowordError("R members must be pairs and S members triples")
        referenced = set(self.q)
        referenced.update(x for p in self.r for x in p)
        referenced.update(x for t in self.s for x in t)
        unknown = {x for x in referenced if x not in alphabet}
        if unknown:
            raise UnknownSymbol(unknown, where="move system")
        self.r_is_graph_of_tau = self.r == alphabet.tau_graph

    @property
    def s_is_sub_diagonal(self):
        return all(t[0] == t[1] == t[2] for t in self.s)

    @classmethod
    def standard(cls, alphabet, s):
        """Q = whole alphabet, R = graph of tau, with the given S."""
        return cls(alphabet, q=alphabet.symbols, r=alphabet.tau_graph, s=s)

    def __eq__(self, other):
        return (isinstance(other, MoveSystem)
                and self.alphabet == other.alphabet
                and self.q == other.q and self.r == other.r and self.s == other.s)

    def __hash__(self):
        return hash((self.alphabet, self.q, self.r, self.s))

    def __repr__(self):
        return f"MoveSystem(q={sorted(self.q)}, r={sorted(self.r)}, s={sorted(self.s)})"


class Nanophrase:
    """k component words whose concatenation uses every letter twice.

    Values are immutable after construction; all operations on them are
    pure functions returning new phrases.  `_profiles` memoises the
    interleaving profile table of `invariants`; it is filled on first
    use, and filling it twice gives the same table.
    """

    __slots__ = ("alphabet", "components", "proj", "letters", "flat", "comp_of", "_occ",
                 "_profiles")

    def __init__(self, alphabet, components, proj, validate=True):
        components = tuple(tuple(comp) for comp in components)
        if not components:
            raise NanowordError("a phrase needs at least one component")
        flat = tuple(itertools.chain.from_iterable(components))
        if validate:
            counts = Counter(flat)
            bad = {ltr: c for ltr, c in counts.items() if c != 2}
            if bad:
                raise LetterCountError(bad)
            problems = [f"{ltr}=?" for ltr in counts if ltr not in proj]
            problems += [f"{ltr}={proj[ltr]}" for ltr in counts
                         if ltr in proj and proj[ltr] not in alphabet]
            if problems:
                raise UnknownSymbol(problems, where="projection")
        self.alphabet = alphabet
        self.components = components
        self.flat = flat
        self.comp_of = tuple(c for c, comp in enumerate(components) for _ in comp)
        letters, occ = [], {}
        for pos, ltr in enumerate(flat):
            if ltr in occ:
                occ[ltr] = (occ[ltr][0], pos)
            else:
                occ[ltr] = (pos, pos)
                letters.append(ltr)
        self.letters = tuple(letters)
        self._occ = occ
        self.proj = {ltr: proj[ltr] for ltr in letters}
        self._profiles = None

    def _with_proj(self, proj):
        """A phrase sharing this one's word structure, with its own projection.

        `proj` must map exactly `self.letters`, in that order; nothing is
        checked.
        """
        phrase = object.__new__(Nanophrase)
        phrase.alphabet = self.alphabet
        phrase.components = self.components
        phrase.flat = self.flat
        phrase.comp_of = self.comp_of
        phrase.letters = self.letters
        phrase._occ = self._occ
        phrase.proj = proj
        phrase._profiles = None
        return phrase

    @property
    def k(self):
        return len(self.components)

    @property
    def n_letters(self):
        return len(self.letters)

    def occurrences(self, letter):
        """The two positions of a letter in the concatenation."""
        return self._occ[letter]

    def component_pair(self, letter):
        """1-based component indices of the two occurrences, ascending."""
        p1, p2 = self._occ[letter]
        return (self.comp_of[p1] + 1, self.comp_of[p2] + 1)

    def __repr__(self):
        body = " | ".join(" ".join(comp) for comp in self.components)
        return f"Nanophrase({body!r})"


class CanonicalForm:
    """Letters replaced by 1..n in order of first occurrence.

    Two nanophrases over the same alphabet are isomorphic exactly when
    their canonical forms are equal.  A form wraps one key str: chr(n),
    the ranks (rank r is chr(r), components joined by chr(0)), then one
    process-local code per letter's symbol.  `packed`, `proj_seq` and
    `pattern` are decoded on each access; pickles carry symbols, never
    codes.  Forms are immutable and equal only other forms.
    """

    __slots__ = ("key",)

    def __init__(self, pattern, proj_seq):
        comps = ["".join(map(chr, comp)) for comp in pattern]
        if any("\0" in comp for comp in comps):
            raise ValueError("ranks must be positive")
        proj_seq = tuple(proj_seq)
        _set_key(self, chr(len(proj_seq)) + "\0".join(comps) + _encode_symbols(proj_seq))

    @classmethod
    def from_key(cls, key):
        """The form of a search key, unchecked."""
        form = _new_object(cls)
        _set_key(form, key)
        return form

    @property
    def packed(self):
        return self.key[1:len(self.key) - ord(self.key[0])]

    @property
    def proj_seq(self):
        return tuple(map(_symbol_of.__getitem__, self.key[len(self.key) - ord(self.key[0]):]))

    @property
    def pattern(self):
        return tuple(tuple(map(ord, comp)) for comp in self.packed.split("\0"))

    @property
    def n_letters(self):
        return ord(self.key[0])

    @property
    def k(self):
        return self.packed.count("\0") + 1

    def serialize(self):
        body = " ".join("|" if ch == "\0" else str(ord(ch)) for ch in self.packed)
        return f'{body} ; {" ".join(self.proj_seq)}'.strip()

    def to_phrase(self, alphabet):
        """Materialize the canonical representative over an alphabet."""
        names = rank_letters(self.n_letters)
        components = tuple(tuple(names[ord(ch) - 1] for ch in comp)
                           for comp in self.packed.split("\0"))
        return Nanophrase(alphabet, components, dict(zip(names, self.proj_seq)),
                          validate=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"CanonicalForm is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"CanonicalForm is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return CanonicalForm, (self.pattern, self.proj_seq)

    def __eq__(self, other):
        if other.__class__ is not CanonicalForm:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"CanonicalForm(pattern={self.pattern!r}, proj_seq={self.proj_seq!r})"

    def __str__(self):
        return self.serialize()


# The slot setter bypasses __setattr__, which refuses every assignment.
_new_object = object.__new__
_set_key = CanonicalForm.key.__set__

# Each symbol gets one key code on its first use in this process, under
# the lock so that threads meeting a new symbol at once agree on its code.
_code_of = {}
_symbol_of = {}
_register_lock = threading.Lock()


def _encode_symbols(symbols):
    """The codes of a sequence of symbols, one char each."""
    try:
        return "".join(map(_code_of.__getitem__, symbols))
    except KeyError:
        with _register_lock:
            for symbol in symbols:
                if symbol not in _code_of:
                    code = chr(len(_code_of))
                    _symbol_of[code] = symbol
                    _code_of[symbol] = code
        return "".join(map(_code_of.__getitem__, symbols))


@lru_cache(maxsize=64)
def rank_letters(n):
    """The canonical letter names of first-occurrence ranks 1..n: A..Z, then L27, ..."""
    return tuple(chr(64 + r) if r <= 26 else f"L{r}" for r in range(1, n + 1))


def canonical_form(phrase):
    """Relabel letters by first occurrence; preserves boundaries and projections."""
    rank = {ltr: chr(r) for r, ltr in enumerate(phrase.letters, 1)}.__getitem__
    packed = "\0".join("".join(map(rank, comp)) for comp in phrase.components)
    codes = _encode_symbols([*map(phrase.proj.__getitem__, phrase.letters)])
    return CanonicalForm.from_key(chr(len(phrase.letters)) + packed + codes)


def validate_nanophrase(alphabet, components, proj):
    """Build a nanophrase, reporting every violating letter on failure."""
    return Nanophrase(alphabet, components, proj, validate=True)


def are_isomorphic(phrase1, phrase2):
    if phrase1.alphabet != phrase2.alphabet:
        raise AlphabetMismatch("phrases live over different alphabets")
    return canonical_form(phrase1) == canonical_form(phrase2)


def _double_occurrence_patterns(n):
    # Rank sequences of length 2n, each rank twice, first occurrences in
    # increasing order; emitted in lexicographic order.
    seq = []

    def rec(open_ranks, next_rank):
        if len(seq) == 2 * n:
            yield tuple(seq)
            return
        remaining = 2 * n - len(seq)
        for r in sorted(open_ranks):
            seq.append(r)
            open_ranks.remove(r)
            yield from rec(open_ranks, next_rank)
            open_ranks.add(r)
            seq.pop()
        if next_rank <= n and len(open_ranks) <= remaining - 2:
            seq.append(next_rank)
            open_ranks.add(next_rank)
            yield from rec(open_ranks, next_rank + 1)
            open_ranks.remove(next_rank)
            seq.pop()

    yield from rec(set(), 1)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_nanophrases(alphabet, n_letters, k):
    """One canonical representative per isomorphism class.

    Streams every double-occurrence pattern on n_letters letters,
    distributed over k ordered components, crossed with every projection
    assignment, in a fixed deterministic order.  The phrases of one
    pattern and distribution share their immutable word structure.
    """
    if n_letters < 0:
        raise ValueError("n_letters must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    names = rank_letters(n_letters)
    for pattern in _double_occurrence_patterns(n_letters):
        flat = tuple(names[r - 1] for r in pattern)
        for sizes in _compositions(2 * n_letters, k):
            comps, start = [], 0
            for size in sizes:
                comps.append(flat[start:start + size])
                start += size
            shape = Nanophrase(alphabet, comps, dict.fromkeys(names), validate=False)
            for assignment in itertools.product(alphabet.symbols, repeat=n_letters):
                yield shape._with_proj(dict(zip(names, assignment)))
