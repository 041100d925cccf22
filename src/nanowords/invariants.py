"""Quantities preserved by the gated rewrite moves.

At the phrase level (pair deletions gated by the graph of tau):

* lk_phrase: for each component pair i<j, the product in the
  abelianization pi(alphabet, tau) of the symbols of letters crossing
  those two components.
* clv_phrase: per component, the parity of cross-component letters.
* so_phrase: per component, a signed census of single-component letters
  bucketed by their interleaving profile (the map (B_P)_j).
* t_invariant: the per-component collapse of the same data.

The word-level analogues over a lifted alphabet read the component
pair off each letter's subscripts; they agree with the phrase versions
on flattened phrases.  One engine computes every value from each
letter's (symbol, i, j) record and one profile table.  Three adapters
feed it: a phrase's letters, a lifted word's subscripts, and a
canonical key's ranks and codes (key_reader, which builds no phrase).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import Alphabet, AlphabetMismatch, NanowordError, _symbol_of
from .lift import _require_lifted_word


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
    (ii) when every one has p fixed, and (iii) otherwise.
    """

    n_free: int
    k: int
    entries: tuple

    @classmethod
    def build(cls, n_free, k, raw):
        entries = []
        for (j, p, q), coeff in raw.items():
            if p > n_free or q > n_free:
                coeff %= 2
            if coeff:
                entries.append(((j, p, q), coeff))
        entries.sort()
        return cls(n_free, k, tuple(entries))

    @property
    def is_zero(self):
        return not self.entries

    @property
    def type_class(self):
        if not self.entries:
            return None
        ps = {p for (_j, p, _q), _c in self.entries}
        if all(p <= self.n_free for p in ps):
            return "i"
        if all(p > self.n_free for p in ps):
            return "ii"
        return "iii"

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


def _key_parts(key, part):
    """Letters, their occurrences and (symbol, i, j) records off a canonical key.

    Letters are 0..n-1 in rank order, and occurrences are packed indices
    found as in kernel._sites; these grow with flat positions, which is
    all _profile_table compares.  i and j count the boundaries before them,
    or come from `part` (LiftedAlphabet.part) at the word level.
    """
    n = ord(key[0])
    packed = key[1:len(key) - n]
    ranks = list(map(chr, range(1, n + 1)))
    spans = list(zip(map(packed.find, ranks), map(packed.rfind, ranks)))
    symbols = map(_symbol_of.__getitem__, key[len(key) - n:])
    if part is None:
        count = packed.count
        parts = [(s, count("\0", 0, f) + 1, count("\0", 0, l) + 1)
                 for s, (f, l) in zip(symbols, spans)]
    else:
        parts = list(map(part, symbols))
    return range(n), spans.__getitem__, parts


def _profile_table(alphabet, k, letters, occurrences, parts):
    """letter -> SigmaVector, from one pass over the interleaved letter pairs.

    A pair a < b in first-occurrence order interleaves when
    a1 < b1 < a2 < b2.  It adds epsilon(|b|) at b's second slot to a's
    profile and -epsilon(|a|) at a's first slot to b's: the entries that
    `sigma_table` lists for (a, b) and (b, a).  Since first occurrences
    increase along `letters`, the scan for partners of a stops at the
    first b with b1 > a2.
    """
    n = len(letters)
    spans = list(map(occurrences, letters))
    orbit = [alphabet.orbit_index(s) for s, _i, _j in parts]
    eps = [alphabet.epsilon(s) for s, _i, _j in parts]
    second_slot = [j for _s, _i, j in parts]
    raws = [{} for _ in range(n)]
    for a in range(n):
        a2 = spans[a][1]
        raw_a, pa, ea, slot_a = raws[a], orbit[a], eps[a], parts[a][1]
        for b in range(a + 1, n):
            b1, b2 = spans[b]
            if b1 > a2:
                break
            if b2 > a2:
                pb = orbit[b]
                key = (second_slot[b], pa, pb)
                raw_a[key] = raw_a.get(key, 0) + eps[b]
                raw_b = raws[b]
                key = (slot_a, pb, pa)
                raw_b[key] = raw_b.get(key, 0) - ea
    n_free = alphabet.n_free
    zero = SigmaVector(n_free, k, ())
    return {ltr: SigmaVector.build(n_free, k, raw) if raw else zero
            for ltr, raw in zip(letters, raws)}


def _profile_vectors(phrase, parts=None):
    """letter -> SigmaVector summing its signed interleavings with all others.

    Filled on first use and kept in the phrase's `_profiles` slot, so
    so_phrase, t_invariant and invariant_lines share one pass.  `parts`
    are the phrase's records when the caller has already read them.
    """
    profiles = phrase._profiles
    if profiles is None:
        profiles = _profile_table(phrase.alphabet, phrase.k, phrase.letters, phrase.occurrences,
                                  _phrase_parts(phrase) if parts is None else parts)
        phrase._profiles = profiles
    return profiles


def _bucketed_census(alphabet, members, profiles):
    bucket = defaultdict(int)
    for ltr, proj_sym in members:
        vec = profiles[ltr]
        if vec.is_zero or vec.type_class == "iii":
            continue
        bucket[vec] += alphabet.epsilon(proj_sym)
    entries = []
    for vec, total in bucket.items():
        if vec.type_class == "ii":
            total %= 2
        if total:
            entries.append((vec, total))
    entries.sort(key=lambda item: item[0].entries)
    return tuple(entries)


def _diagonal_members(k, letters, parts):
    """Per component c, the (letter, symbol) pairs whose slots are both c."""
    members = [[] for _ in range(k)]
    for ltr, (s, i, j) in zip(letters, parts):
        if i == j:
            members[i - 1].append((ltr, s))
    return members


def _census(alphabet, k, letters, parts, profiles):
    return SoValue(tuple(_bucketed_census(alphabet, comp_members, profiles)
                         for comp_members in _diagonal_members(k, letters, parts)))


def so_phrase(phrase, moves):
    """The per-component signed census of single-component letters."""
    _require_graph_tau(moves, phrase)
    parts = _phrase_parts(phrase)
    return _census(phrase.alphabet, phrase.k, phrase.letters, parts,
                   _profile_vectors(phrase, parts))


def _collapse(n_free, weighted):
    """One T block: the sum of weight * vector over (vector, weight), slots collapsed."""
    raw = defaultdict(int)
    for vec, weight in weighted:
        for (_j, p, q), coeff in vec.entries:
            raw[(1, p, q)] += weight * coeff
    return SigmaVector.build(n_free, 1, raw)


def _t(alphabet, k, letters, parts, profiles):
    """Per component, the epsilon-weighted collapsed profiles of its diagonal letters."""
    return tuple(
        _collapse(alphabet.n_free, ((profiles[ltr], alphabet.epsilon(symbol))
                                    for ltr, symbol in comp_members))
        for comp_members in _diagonal_members(k, letters, parts))


def t_invariant(phrase, moves):
    """Per component, the epsilon-weighted sum of collapsed profiles.

    One block per component: entry (p, q) accumulates, over the
    single-component letters of that component, epsilon times the
    letter's interleaving counts summed across component slots.
    """
    _require_graph_tau(moves, phrase)
    parts = _phrase_parts(phrase)
    return _t(phrase.alphabet, phrase.k, phrase.letters, parts, _profile_vectors(phrase, parts))


def t_from_so(so_value, n_free):
    """Entry-sum recovery of the per-component blocks from an SoValue.

    Sums count * vector over each component map and collapses the
    component slots.  Matches t_invariant whenever every letter profile
    is of type (i) or (ii).
    """
    return tuple(_collapse(n_free, comp_map) for comp_map in so_value.maps)


def _lk(alphabet, k, _letters, parts, _profiles):
    """Per slot pair i<j, the product of the symbols of letters with slots (i, j)."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    exps = {pair: [0] * (alphabet.n_free + alphabet.n_fixed) for pair in pairs}
    for s, i, j in parts:
        if i != j:
            exps[(i, j)][alphabet.orbit_index(s) - 1] += alphabet.epsilon(s)
    return tuple(PiElement._make(alphabet, exps[pair]) for pair in pairs)


def _clv(_alphabet, k, _letters, parts, _profiles):
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
    return _lk(phrase.alphabet, phrase.k, None, _phrase_parts(phrase), None)


def clv_phrase(phrase, moves):
    """Per component, the parity of letters with one occurrence elsewhere."""
    _require_graph_tau(moves, phrase)
    return _clv(None, phrase.k, None, _phrase_parts(phrase), None)


def so_lifted(word, lifted):
    """Word-level census: members are the diagonal-subscript letters."""
    parts = _lifted_parts(word, lifted)
    return _census(lifted.base, lifted.k, word.letters, parts,
                   _profile_table(lifted.base, lifted.k, word.letters, word.occurrences, parts))


def lk_lifted(word, lifted):
    """Subscript-pair products in the base abelianization, pairs i<j."""
    return _lk(lifted.base, lifted.k, None, _lifted_parts(word, lifted), None)


def clv_lifted(word, lifted):
    """Per component, the parity of off-diagonal letters touching it."""
    return _clv(None, lifted.k, None, _lifted_parts(word, lifted), None)


def phrase_invariants_applicable(moves):
    """Names of phrase invariants whose preservation the system guarantees.

    All of them need R = graph(tau).  The census and its collapse also
    need every S triple to be diagonal.
    """
    if not moves.r_is_graph_of_tau:
        return ()
    names = ("lk", "clv")
    if moves.s_is_sub_diagonal:
        names += ("So", "T")
    return names


def lifted_invariants_applicable(moves, lifted):
    """Names of word-level invariants guaranteed under a lifted system.

    lk and clv additionally need Q within the diagonal-subscript symbols;
    the census instead tolerates any Q but needs S within the lifted
    diagonal.
    """
    if moves.alphabet != lifted.alphabet or not moves.r_is_graph_of_tau:
        return ()
    names = ()
    if moves.q <= lifted.q_symbols():
        names += ("lk", "clv")
    if moves.s <= lifted.diagonal_triples():
        names += ("So",)
    return names


def _tuple_text(values):
    return "(" + ",".join(map(str, values)) + ")"


# name -> (value from (alphabet, k, letters, parts, profiles), its rendering)
_REGISTRY = {
    "lk": (_lk, _tuple_text),
    "clv": (_clv, _tuple_text),
    "So": (_census, str),
    "T": (_t, lambda blocks: "; ".join(f"{j}: {b}" for j, b in enumerate(blocks, start=1))),
}


def _values(names, base, k, letters, occurrences, parts, profiles=None):
    # The raw values of the named rows, from one word's records; the
    # profile table is built here unless the caller kept one.
    if profiles is None and "So" in names:
        profiles = _profile_table(base, k, letters, occurrences, parts)
    return tuple([_REGISTRY[name][0](base, k, letters, parts, profiles) for name in names])


def invariant_lines(word, moves, lifted=None):
    """(name, rendered value) for every invariant the system guarantees.

    `lifted` selects the word level over that lifted alphabet; None
    selects the phrase level.  The word's (symbol, i, j) records are read
    once and its profile table is built at most once (a phrase keeps
    it).  There are no rows when the system guarantees no invariant.
    """
    if lifted is None:
        names = phrase_invariants_applicable(moves)
        if not names:
            return []
        _require_graph_tau(moves, word)
        base, k, parts = word.alphabet, word.k, _phrase_parts(word)
        profiles = _profile_vectors(word, parts) if "So" in names else None
    else:
        names = lifted_invariants_applicable(moves, lifted)
        if not names:
            return []
        base, k, parts, profiles = lifted.base, lifted.k, _lifted_parts(word, lifted), None
    return render_rows(names, _values(names, base, k, word.letters, word.occurrences, parts,
                                      profiles))


def render_rows(names, values):
    """invariant_lines' rows from the raw values of its named rows."""
    return [(name, _REGISTRY[name][1](value)) for name, value in zip(names, values)]


def key_reader(alphabet, k, moves, lifted=None):
    """invariant_lines on canonical keys, as (names, values).

    The keys are of phrases over `alphabet` with k components, or of
    words over `lifted`.  values(key) is the tuple of raw row values, and
    render_rows(names, values(key)) is invariant_lines on the key's
    phrase, but no phrase is built.
    """
    if lifted is None:
        names, base, part = phrase_invariants_applicable(moves), alphabet, None
    else:
        names, base, part = lifted_invariants_applicable(moves, lifted), lifted.base, lifted.part
        if names and k != 1:
            raise NanowordError("expected keys of one-component words")
        k = lifted.k
    if names and alphabet != moves.alphabet:
        raise AlphabetMismatch("move system and keys use different alphabets")
    return names, lambda key: _values(names, base, k, *_key_parts(key, part))
