"""Quantities preserved by the gated rewrite moves, and when they are.

* lk: for each component pair i<j, the product in the abelianization
  pi(alphabet, tau) of the symbols of letters crossing those two
  components.
* clv: per component, the parity of cross-component letters.
* So: per component, a signed census of single-component letters
  bucketed by their interleaving profile (the map (B_P)_j).
* T: the per-component collapse of the same data, read off So's value
  (t_from_so).

Each row's _REGISTRY entry holds its value function, its rendering and
its clauses on (Q, R, S), one per move kind whose proof needs it, read
alike at the phrase level and at the word level (no T row).  A word over
a lifted alphabet reads each letter's component pair off its subscripts,
and its rows agree with the phrase rows on flattened phrases.  One
engine computes every value from each letter's (symbol, i, j) record and
the interleaved letter pairs: only the census makes a dense profile pass,
over the pairs for its single-component letters; it buckets them by
(orbit, profile) and builds a vector only for each bucket that survives.
Every letter's profile (_profile_vectors) is the per-letter sum of
sigma_table's entries.  Equal vectors and equal lk group elements are one
object, from small bounded memos.  Three adapters feed it: a phrase's
letters and a lifted word's subscripts (the public per-row functions
lk_phrase ... so_lifted), and a canonical key's ranks and codes
(key_reader, which builds no phrase; invariant_lines is key_reader on a
word's key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

from .core import Alphabet, AlphabetMismatch, NanowordError, _symbol_of, canonical_form
from .lift import _require_lifted_word, diagonal_triples


class NonGraphR(NanowordError):
    """Phrase-level invariants need pair deletions gated by the graph of tau."""


def _require_graph_tau(moves, phrase):
    if moves.alphabet != phrase.alphabet:
        raise AlphabetMismatch("move system and phrase use different alphabets")
    if not moves.r_is_graph_of_tau:
        raise NonGraphR("R must equal the graph of tau")


@dataclass(frozen=True)
class PiElement:
    """Element of the abelian group on the alphabet with s * tau(s) = 1.

    Free orbits contribute an integer exponent on their representative;
    fixed points contribute an exponent mod 2.
    """

    alphabet: Alphabet
    exps: tuple

    @classmethod
    def _make(cls, alphabet, exps):
        cut = alphabet.n_free
        return cls(alphabet, tuple(e if i < cut else e % 2 for i, e in enumerate(exps)))

    @classmethod
    def identity(cls, alphabet):
        return cls(alphabet, (0,) * (alphabet.n_free + alphabet.n_fixed))

    @classmethod
    def from_symbol(cls, alphabet, symbol):
        exps = [0] * (alphabet.n_free + alphabet.n_fixed)
        exps[alphabet.orbit_index(symbol) - 1] = alphabet.epsilon(symbol)
        return cls._make(alphabet, exps)

    def __mul__(self, other):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("group elements over different alphabets")
        return self._make(self.alphabet, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def inverse(self):
        return self._make(self.alphabet, tuple(-e for e in self.exps))

    @property
    def is_identity(self):
        return not any(self.exps)

    def render(self):
        terms = []
        for idx, e in enumerate(self.exps):
            if e:
                rep = self.alphabet.representatives[idx]
                terms.append(rep if e == 1 else f"{rep}^{e}")
        return " ".join(terms) or "1"

    __str__ = render


@dataclass(frozen=True)
class SigmaVector:
    """Sparse vector of signed interleaving counts.

    Entries are keyed (component, p, q) by canonical orbit indices; the
    entry ring is the integers when both p and q index free orbits and
    Z/2 otherwise.  The type is (i) when every nonzero entry has p free,
    (ii) when every one has p fixed, and (iii) otherwise; build computes
    it from the entries, and it is None for the zero vector.
    """

    entries: tuple
    type_class: str = field(compare=False)

    @classmethod
    def build(cls, n_free, raw):
        entries, seen = [], 0  # seen: bit 1 for an entry with p free, bit 2 with p fixed
        for (j, p, q), coeff in raw.items():
            if p > n_free or q > n_free:
                coeff %= 2
            if coeff:
                entries.append(((j, p, q), coeff))
                seen |= 2 if p > n_free else 1
        entries.sort()
        return cls(tuple(entries), (None, "i", "ii", "iii")[seen])

    @property
    def is_zero(self):
        return not self.entries

    def render(self):
        if not self.entries:
            return "0"
        return " ".join(f"{j}:({p},{q}):{c}" for (j, p, q), c in self.entries)

    __str__ = render


@dataclass(frozen=True)
class SoValue:
    """Per component, a finite map from nonzero profile vectors to counts.

    Only type (i) and (ii) vectors appear; type (i) counts are integers,
    type (ii) counts live mod 2, and zero counts are dropped, so equality
    of SoValue objects is equality of the underlying maps.
    """

    maps: tuple

    def render(self):
        parts = []
        for j, comp_map in enumerate(self.maps, start=1):
            body = " ".join(f"[{vec}]={count}" for vec, count in comp_map) or "0"
            parts.append(f"{j}: {body}")
        return "; ".join(parts)

    __str__ = render


def _interleaving(occ_x, occ_y):
    """x-first/y-first flag and the y occurrence fixing the component slot."""
    x1, x2 = occ_x
    y1, y2 = occ_y
    if x1 < y1 < x2 < y2:
        return True, y2
    if y1 < x1 < y2 < x2:
        return False, y1
    return None


def sigma_table(phrase, moves):
    """Signed unit entries for every interleaved ordered letter pair.

    Maps (A, B, j) to (p, q, coeff): p and q are the orbit indices of
    |A| and |B|, j the component of the occurrence of B between or after
    the pair pattern, and the sign is epsilon(|B|) when A comes first and
    its negative otherwise (collapsed into Z/2 for mixed orbits).
    """
    _require_graph_tau(moves, phrase)
    return _sigma_entries(phrase)


def _sigma_entries(phrase):
    alphabet = phrase.alphabet
    table = {}
    for x in phrase.letters:
        px = alphabet.orbit_index(phrase.proj[x])
        for y in phrase.letters:
            if x == y:
                continue
            hit = _interleaving(phrase.occurrences(x), phrase.occurrences(y))
            if hit is None:
                continue
            x_first, y_pos = hit
            sign = alphabet.epsilon(phrase.proj[y]) * (1 if x_first else -1)
            q = alphabet.orbit_index(phrase.proj[y])
            if px > alphabet.n_free or q > alphabet.n_free:
                sign %= 2
            j = phrase.comp_of[y_pos] + 1
            table[(x, y, j)] = (px, q, sign)
    return table


def _phrase_parts(phrase):
    """(symbol, i, j) for each of `phrase.letters`, in that order.

    i <= j are the 1-based components of the letter's two occurrences.
    This is the (base symbol, i, j) that phi writes into a letter's
    projection, so the phrase and lifted invariants below read one shape.
    """
    comp_of, proj, occurrences = phrase.comp_of, phrase.proj, phrase.occurrences
    parts = []
    for ltr in phrase.letters:
        p1, p2 = occurrences(ltr)
        parts.append((proj[ltr], comp_of[p1] + 1, comp_of[p2] + 1))
    return parts


def _lifted_parts(word, lifted):
    _require_lifted_word(word, lifted)
    proj = word.proj
    return [lifted.part(proj[ltr]) for ltr in word.letters]


def _interleaved_pairs(spans):
    """The interleaved letter pairs, flat: (a, b, a', b', ...), from (first, second) spans.

    The spans are the letters' two positions, in first-occurrence order
    (any increasing positions will do).  Letters a < b interleave when
    a1 < b1 < a2 < b2; the scan for partners of a stops at the first b
    with b1 > a2.
    """
    spans, pairs = list(spans), []
    for a, (_a1, a2) in enumerate(spans):
        for b in range(a + 1, len(spans)):
            b1, b2 = spans[b]
            if b1 > a2:
                break
            if b2 > a2:
                pairs += a, b
    return tuple(pairs)


# Every slot of a one-component pattern is 1; zip stops at the symbols.
_ONES = repeat(1)


@lru_cache(maxsize=512)
def _rank_pattern(packed):
    # A key's records and pairs that need no symbol, per rank pattern
    # (packed ranks and boundaries): each rank's first and second
    # component slots, and _interleaved_pairs.  Rank r first occurs at
    # packed.find(chr(r)), as in kernel._sites.  A full memo of 7-letter
    # patterns reads about 0.3 MB of RSS.  A classify BFS meets few
    # patterns (647 on curves --n 3), and 512 entries keep its hit ratio
    # (94.9% there) near an unbounded memo's (95.6%).
    n = (len(packed) - packed.count("\0")) // 2
    ranks = list(map(chr, range(1, n + 1)))
    firsts, seconds = list(map(packed.find, ranks)), list(map(packed.rfind, ranks))
    pairs = _interleaved_pairs(zip(firsts, seconds))
    if "\0" not in packed:
        return _ONES, _ONES, pairs
    count = packed.count
    return (tuple([count("\0", 0, f) + 1 for f in firsts]),
            tuple([count("\0", 0, l) + 1 for l in seconds]), pairs)


def _key_parts(key, part):
    """Interleaved pairs and (symbol, i, j) records off a canonical key.

    Letters are 0..n-1 in rank order.  The pairs and the slots i and j
    (the boundaries before each occurrence, plus one) depend only on the
    rank pattern and come from the _rank_pattern memo; each key reads
    only its codes, and at the word level takes i and j from `part`
    (LiftedAlphabet.part) instead.
    """
    n = ord(key[0])
    firsts, seconds, pairs = _rank_pattern(key[1:len(key) - n])
    symbols = map(_symbol_of.__getitem__, key[len(key) - n:])
    return pairs, list(zip(symbols, firsts, seconds) if part is None else map(part, symbols))


def _profile_pass(alphabet, k, pairs, parts):
    """Per letter, its raw dense profile if it is a single-component letter, else None.

    These are the letters So counts.  Every entry (j, p, q) of a letter's
    profile has the letter's own orbit as p, so the profile is p and
    k * len(orbits) integers, entry (j, p, q) at (j - 1) * len(orbits) +
    q - 1.  A pair a < b (_interleaved_pairs) adds epsilon(|b|) at b's
    second slot to a's profile and -epsilon(|a|) at a's first slot to b's:
    the entries that `sigma_table` lists for (a, b) and (b, a).
    """
    orbit, eps, width = alphabet._orbit_index, alphabet._epsilon, len(alphabet.orbits)
    rows = [[0] * (k * width) if i == j else None for _s, i, j in parts]
    pair = iter(pairs)
    for a, b in zip(pair, pair):
        row = rows[a]
        if row is not None:
            sb, _ib, jb = parts[b]
            row[(jb - 1) * width + orbit[sb] - 1] += eps[sb]
        row = rows[b]
        if row is not None:
            sa, ia, _ja = parts[a]
            row[(ia - 1) * width + orbit[sa] - 1] -= eps[sa]
    return rows


def _reduced(alphabet, p, row):
    # The row in its entries' ring: Z/2 where p or q is a fixed orbit.
    n_free = alphabet.n_free
    if p > n_free:
        return tuple([c % 2 for c in row])
    if alphabet.n_fixed:
        width = len(alphabet.orbits)
        return tuple([c % 2 if i % width >= n_free else c for i, c in enumerate(row)])
    return tuple(row)


@lru_cache(maxsize=256)
def _vector(n_free, width, p, row):
    # The SigmaVector of a reduced dense row, from SigmaVector.build; equal
    # rows share one vector.  Builds are memo misses, and few rows recur:
    # classify --builtin curves --n 4 --max-states 2000000 builds 6
    # vectors for 435,600 surviving buckets, one census benchmark pass 94.
    return SigmaVector.build(n_free, {(i // width + 1, p, i % width + 1): c
                                      for i, c in enumerate(row) if c})


def _word_pairs(word):
    return _interleaved_pairs(map(word.occurrences, word.letters))


def _profile_vectors(phrase):
    """letter -> SigmaVector summing its sigma_table entries (its signed interleavings)."""
    raws = {ltr: {} for ltr in phrase.letters}
    for (x, _y, j), (p, q, coeff) in _sigma_entries(phrase).items():
        raws[x][j, p, q] = raws[x].get((j, p, q), 0) + coeff
    return {ltr: SigmaVector.build(phrase.alphabet.n_free, raw) for ltr, raw in raws.items()}


def _census(alphabet, k, parts, pairs):
    """Per component, the signed census of its single-component letters' profiles.

    Letters are bucketed by their reduced dense profile (p, row); a
    vector is built only for each bucket whose count survives.  No
    profile is of type (iii) (see t_from_so), so every nonzero one counts.
    With one fixed symbol (diagonal, k = 1) a letter's row is its
    interleaving degree mod 2; the odd-degree letters are even in number,
    so their one bucket counts 0 mod 2 and So is constant there.
    """
    orbit, eps, n_free, width = (alphabet._orbit_index, alphabet._epsilon, alphabet.n_free,
                                 len(alphabet.orbits))
    buckets = [{} for _ in range(k)]
    for row, (s, i, _j) in zip(_profile_pass(alphabet, k, pairs, parts), parts):
        if row is not None and any(row):
            p = orbit[s]
            bucket, key = buckets[i - 1], (p, _reduced(alphabet, p, row))
            bucket[key] = bucket.get(key, 0) + eps[s]
    maps = []
    for bucket in buckets:
        entries = []
        for (p, row), count in bucket.items():
            if p > n_free:
                count %= 2
            if count and any(row):  # a row that reduced to zero is no entry
                entries.append((_vector(n_free, width, p, row), count))
        entries.sort(key=lambda entry: entry[0].entries)
        maps.append(tuple(entries))
    return SoValue(tuple(maps))


def so_phrase(phrase, moves):
    """The per-component signed census of single-component letters.

    Filled on first use and kept in the phrase's `_so` slot, so
    t_invariant and later calls read it without a second census.
    """
    _require_graph_tau(moves, phrase)
    so = phrase._so
    if so is None:
        so = phrase._so = _census(phrase.alphabet, phrase.k, _phrase_parts(phrase),
                                  _word_pairs(phrase))
    return so


def _collapse(n_free, weighted):
    """One T block: the sum of weight * vector over (vector, weight), slots collapsed."""
    raw = {}
    for vec, weight in weighted:
        for (_j, p, q), coeff in vec.entries:
            raw[1, p, q] = raw.get((1, p, q), 0) + weight * coeff
    return SigmaVector.build(n_free, raw)


def t_invariant(phrase, moves):
    """Per component, the epsilon-weighted sum of collapsed profiles: t_from_so of So."""
    return t_from_so(so_phrase(phrase, moves), phrase.alphabet.n_free)


def t_from_so(so_value, n_free):
    """T, read off an SoValue: per component, count * vector summed, slots collapsed.

    Entry (p, q) of a component's block accumulates, over that
    component's single-component letters, epsilon times the letter's
    interleaving counts summed across component slots.  The census
    holds all of them: each entry of a letter's profile has the letter's
    own orbit as p, so no profile is of type (iii), and a dropped count
    is zero in the entries' ring.
    """
    return tuple(_collapse(n_free, comp_map) for comp_map in so_value.maps)


@lru_cache(maxsize=256)
def _pi_element(alphabet, exps):
    # Equal exponent tuples share one PiElement.
    return PiElement._make(alphabet, exps)


def _lk(alphabet, k, parts, _pairs):
    """Per slot pair i<j, the product of the symbols of letters with slots (i, j)."""
    if k < 2:
        return ()
    orbit, eps, width, exps = alphabet._orbit_index, alphabet._epsilon, len(alphabet.orbits), {}
    for s, i, j in parts:
        if i != j:
            exps.setdefault((i, j), [0] * width)[orbit[s] - 1] += eps[s]
    one = [0] * width
    return tuple(_pi_element(alphabet, tuple(exps.get((i, j), one)))
                 for i in range(1, k) for j in range(i + 1, k + 1))


def _clv(_alphabet, k, parts, _pairs):
    """Per slot, the parity of letters with two different slots touching it."""
    counts = [0] * k
    for _s, i, j in parts:
        if i != j:
            counts[i - 1] += 1
            counts[j - 1] += 1
    return tuple(c % 2 for c in counts)


def lk_phrase(phrase, moves):
    """Products over cross-component letters, one per component pair i<j."""
    _require_graph_tau(moves, phrase)
    return _lk(phrase.alphabet, phrase.k, _phrase_parts(phrase), None)


def clv_phrase(phrase, moves):
    """Per component, the parity of letters with one occurrence elsewhere."""
    _require_graph_tau(moves, phrase)
    return _clv(None, phrase.k, _phrase_parts(phrase), None)


def so_lifted(word, lifted):
    """Word-level census: members are the diagonal-subscript letters."""
    return _census(lifted.base, lifted.k, _lifted_parts(word, lifted), _word_pairs(word))


def lk_lifted(word, lifted):
    """Subscript-pair products in the base abelianization, pairs i<j."""
    return _lk(lifted.base, lifted.k, _lifted_parts(word, lifted), None)


def clv_lifted(word, lifted):
    """Per component, the parity of off-diagonal letters touching it."""
    return _clv(None, lifted.k, _lifted_parts(word, lifted), None)


def _one_slot_q(moves, lifted):
    # M1: lk and clv count two-slot letters, so an M1 letter (|x| in Q)
    # must have one slot.  A phrase's doubled letter sits in one
    # component; at the word level Q must lie within the s_i_i symbols.
    return lifted is None or moves.q <= lifted.q_symbols()


def _diagonal_s(moves, lifted):
    # M3: the census needs every S triple within the level's diagonal.
    return moves.s <= (diagonal_triples(moves.alphabet) if lifted is None
                       else lifted.diagonal_triples())


def _tuple_text(values):
    return "(" + ",".join(map(str, values)) + ")"


# name -> (value from (alphabet, k, parts, pairs), its rendering, and
# applies(moves, lifted): the row's clauses, per move kind, at the phrase
# level when lifted is None and at the word level otherwise).  T has no
# value function: key_reader reads it off So's value.
_REGISTRY = {
    "lk": (_lk, _tuple_text, _one_slot_q),
    # M2 moves each clv parity by 2 (its letters share slots), but clv
    # keeps R's clause: without it, `invariants` would print clv, not exit 2.
    "clv": (_clv, _tuple_text, _one_slot_q),
    "So": (_census, str, _diagonal_s),
    # T has no word-level row: one would change the lifted output.
    "T": (None, lambda blocks: "; ".join(f"{j}: {b}" for j, b in enumerate(blocks, start=1)),
          lambda moves, lifted: lifted is None and _diagonal_s(moves, lifted)),
}


def _admitted(moves, lifted):
    # The rows whose clauses hold, in registry order.  M2: every row needs
    # R = graph(tau), so that an xy..yx pair cancels; one check serves all.
    if not moves.r_is_graph_of_tau or lifted is not None and moves.alphabet != lifted.alphabet:
        return ()
    return tuple(name for name, (_value, _render, applies) in _REGISTRY.items()
                 if applies(moves, lifted))


def phrase_invariants_applicable(moves):
    """Names of the phrase rows whose _REGISTRY clauses the system meets."""
    return _admitted(moves, None)


def lifted_invariants_applicable(moves, lifted):
    """Names of the word-level rows whose _REGISTRY clauses the system meets."""
    return _admitted(moves, lifted)


def invariant_lines(word, moves, lifted=None):
    """(name, rendered value) for every invariant the system guarantees.

    `lifted` selects the word level over that lifted alphabet; None
    selects the phrase level.  The rows are key_reader's on the word's
    canonical key.  There are no rows when the system guarantees no
    invariant, and AlphabetMismatch when it is over another alphabet.
    """
    names, values = key_reader(word.alphabet, word.k, moves, lifted)
    return render_rows(names, values(canonical_form(word).key)) if names else []


def render_rows(names, values):
    """invariant_lines' rows from the raw values of its named rows."""
    return [(name, _REGISTRY[name][1](value)) for name, value in zip(names, values)]


def key_reader(alphabet, k, moves, lifted=None):
    """The guaranteed rows on canonical keys, as (names, values).

    The keys are of phrases over `alphabet` with k components, or of
    words over `lifted`.  values(key) is the tuple of raw row values, and
    render_rows(names, values(key)) is invariant_lines on the key's
    phrase; no phrase is built.  T is built once per distinct So in a row:
    the reader keeps the last (So, T) pair, read and replaced whole.
    """
    if alphabet != moves.alphabet or lifted is not None and lifted.alphabet != alphabet:
        raise AlphabetMismatch("move system and keys use different alphabets")
    names, base, part = _admitted(moves, lifted), alphabet, None
    if lifted is not None:
        if names and k != 1:
            raise NanowordError("expected a one-component word")
        base, part, k = lifted.base, lifted.part, lifted.k
    rows, last = [_REGISTRY[name][0] for name in names], (None, None)

    def values(key):
        # T follows So in every row list, and is read off the census just computed.
        nonlocal last
        pairs, parts = _key_parts(key, part)
        got = []
        for value in rows:
            if value is None:
                so, t = last
                if so != got[-1]:
                    last = so, t = got[-1], t_from_so(got[-1], base.n_free)
            got.append(t if value is None else value(base, k, parts, pairs))
        return tuple(got)

    return names, values
