"""Move sites and child keys read off canonical-form keys.

The one site finder: find_move_sites reads a phrase off its key, and the
search reads keys.  A key (see core.CanonicalForm) is read as packed
ranks and symbol codes, and each site and child key is a few string
operations on it, without a Nanophrase.  moves.apply_move followed by
core.canonical_form is the reference that every child must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .core import _encode_symbols, _symbol_of, rank_letters

MATCH_KINDS = ("M1", "M2", "M3", "M3inv")
INSERTION_KINDS = ("M1ins", "M2ins")
ALL_KINDS = MATCH_KINDS + INSERTION_KINDS


@dataclass(frozen=True)
class MoveSite:
    """One admissible application point of a move.

    positions index the concatenated letter sequence (matched sites);
    gaps are (component, offset) slots and symbols the projections of
    the letters to insert (insertion sites).
    """

    kind: str
    positions: tuple = ()
    letters: tuple = ()
    gaps: tuple = ()
    symbols: tuple = ()


def _sites(key, names, moves, kinds, max_letters):
    # find_move_sites on a key, whose rank r letter is names[r - 1], with
    # the child key of each matched site: the (site, child) pairs of the
    # matched sites, the insertion sites, and the codes of the symbols
    # those insert ("" and [] when the kind is not asked for or does not
    # fit), in site order; with names None, the matched children alone and
    # no insertion sites.
    #
    # Matched sites are read off the packed ranks, at packed indices; a
    # letter at index i sits at flat position i minus the boundaries
    # before it.  Ranks count first occurrences, so the rank r letter
    # first occurs at packed.find(chr(r)).  M1 is a letter doubled at its
    # first occurrence.  The other kinds start with a pair xy whose y is a
    # first occurrence, and the pair names the rest: M2 needs the later y
    # followed by x, M3 the later x and the later y each followed by one
    # z, M3inv the later y preceded by a z whose other occurrence comes
    # after it and is followed by x.  So each letter is one candidate of
    # every kind, tested in O(1); symbols are gated by their codes.  Each
    # child is built from the ranks and indices its test has just read.
    n = ord(key[0])
    packed, codes = key[1:len(key) - n], key[len(key) - n:]
    q_codes, r_codes, q_set, r_set, s_set = _coded(moves)
    matched = []
    if not _MATCH_SET.isdisjoint(kinds):
        s, find = packed + "\0", packed.find  # s has a boundary after the last letter
        letters = list(map(chr, range(1, n + 1)))
        firsts, seconds = list(map(find, letters)), list(map(packed.rfind, letters))
        w1, w2, w3, w3inv = (kind in kinds for kind in MATCH_KINDS)  # asked for
        m1, m2, m3, m3inv = [], [], [], []
        for b, f, l in zip(range(n), firsts, seconds):
            # y (rank b + 1) occurs at f and l; x precedes the first y and
            # z follows the second.  A later x or z found at a second
            # occurrence fails the test after it, so no test asks which.
            if w1 and l == f + 1 and codes[b] in q_set:  # yy
                child, p = _deleted(n, packed, codes, b, b), f - packed.count("\0", 0, f)
                m1.append(child if names is None else
                          (MoveSite("M1", (p, p + 1), (names[b],)), child))
            x = s[f - 1]  # s[-1] is the final boundary
            if x == "\0":
                continue
            a, z = ord(x) - 1, s[l + 1]
            if z == x:  # xy..yx
                if w2 and codes[a] + codes[b] in r_set:
                    child = _deleted(n, packed, codes, a, b)
                    if names is not None:
                        p, pl = f - 1 - packed.count("\0", 0, f), l - packed.count("\0", 0, l)
                        child = MoveSite("M2", (p, p + 1, pl, pl + 1), (names[a], names[b])), child
                    m2.append(child)
            elif w3 and z != "\0" and seconds[a] < l - 1 and s[seconds[a] + 1] == z:  # xy..xz..yz
                c = ord(z) - 1
                if codes[a] + codes[b] + codes[c] in s_set:
                    m3.append(_triple("M3", packed, codes, (f - 1, seconds[a], l), names,
                                      (a, b, c)))
            c = ord(s[l - 1]) - 1
            if w3inv and l > f + 1 and c >= 0 and s[seconds[c] + 1] == x:  # xy..zy..zx
                if codes[b] + codes[a] + codes[c] in s_set:
                    m3inv.append(_triple("M3inv", packed, codes, (f - 1, l - 1, seconds[c]),
                                         names, (b, a, c)))
        matched = m1 + m2 + m3 + m3inv

    q, r = _fitting(n, moves, max_letters, kinds)
    inserted = ()
    if (q or r) and names is not None:
        lengths = tuple(map(len, packed.split("\0")))
        small = 2 * n + len(lengths) <= _SHARED_MAX_GAPS
        inserted = (_shared_insertion_sites if small else _insertion_sites)(lengths, q, r)
    return matched, inserted, q_codes if q else "", r_codes if r else []


_MATCH_SET = frozenset(MATCH_KINDS)
_NO_SYMBOLS = frozenset()


def _fitting(n, moves, max_letters, kinds=INSERTION_KINDS):
    # The Q and R members whose insertions of the kinds asked for fit beside
    # n letters: M1ins needs one letter of room, M2ins two, and None none.
    room = -1 if max_letters is None else max_letters - n
    return (moves.q if room >= 1 and "M1ins" in kinds else _NO_SYMBOLS,
            moves.r if room >= 2 and "M2ins" in kinds else _NO_SYMBOLS)


def _budget_cut(key, moves, max_letters):
    # Whether the letter budget cuts an admissible insertion at the key's
    # form: every form has a gap, so each Q and R member gives one.
    return _fitting(ord(key[0]), moves, max_letters) != (moves.q, moves.r)


def _deleted(n, packed, codes, a, b):
    # The child key of an M1 (a == b) or M2 (a < b) site on the letters of
    # ranks a + 1 and b + 1.  Deleting letters keeps the first-occurrence
    # order: one translate drops their ranks and closes the gaps.
    return (chr(n - 1 - (a < b)) + packed.translate(_drop_table(n, a + 1, b + 1))
            + codes[:a] + codes[a + 1:b] + codes[b + 1:])


def _triple(kind, packed, codes, starts, names, ranks):
    # An M3 or M3inv site on the pairs at packed indices `starts`, with its
    # child key (the key alone when names is None): the three pairs
    # swapped, then the ranks renumbered by first occurrence.
    chars = list(packed)
    for i in starts:
        chars[i], chars[i + 1] = chars[i + 1], chars[i]
    moved = "".join(chars)
    order = dict.fromkeys(moved.replace("\0", ""))
    relabel = {ord(ch): rank for rank, ch in enumerate(order, 1)}
    child = (chr(len(codes)) + moved.translate(relabel)
             + "".join([codes[ord(ch) - 1] for ch in order]))
    if names is None:
        return child
    flat = [p for i in starts for p in (i - packed.count("\0", 0, i),) for p in (p, p + 1)]
    return MoveSite(kind, tuple(flat), tuple([names[r] for r in ranks])), child


@lru_cache(maxsize=32)
def _coded(moves):
    # Q, R and S as key codes: Q as one str and R as a list, each in the
    # order of its insertion sites, then Q, R and S as sets.
    q_codes = _encode_symbols(sorted(moves.q))
    r_codes = [_encode_symbols(pair) for pair in sorted(moves.r)]
    return (q_codes, r_codes, frozenset(q_codes), frozenset(r_codes),
            frozenset(map(_encode_symbols, moves.s)))


def _insertion_sites(lengths, q, r):
    gaps = [(c, o) for c, size in enumerate(lengths) for o in range(size + 1)]
    sites = [MoveSite("M1ins", gaps=(gap,), symbols=(sym,))
             for gap in gaps for sym in sorted(q)]
    pairs = sorted(r)
    sites += [MoveSite("M2ins", gaps=(gaps[gi], gaps[gj]), symbols=pair)
              for gi in range(len(gaps)) for gj in range(gi, len(gaps))
              for pair in pairs]
    return tuple(sites)


# Insertion sites depend only on the component lengths and the symbols,
# so phrases of one shape can share one tuple of them.  No search builds
# them (_children reads child keys only); find_move_sites with a letter
# budget and NeighborCache meet a few small shapes again and again.  The
# memo keeps at most 32 shapes of at most 16 gaps.
_SHARED_MAX_GAPS = 16
_shared_insertion_sites = lru_cache(maxsize=32)(_insertion_sites)


def _expand(key, moves, max_letters, kinds=ALL_KINDS):
    """The (site, child key) pairs of find_move_sites(phrase, moves, kinds, max_letters).

    phrase is the key's form.to_phrase(moves.alphabet), and the children
    are the keys of canonical_form(apply_move(phrase, site)), built on the
    key without a Nanophrase, in site order: every matched site's with its
    site, then the insertion children in batches, the M1ins children of
    each insertion rank and then the M2ins children of each first gap.  A
    batch is built when its first child is read, so a caller that stops
    early builds no later one; the iterator keeps nothing once exhausted.
    _children yields the same keys without the sites.
    """
    matched, inserted, q_codes, r_codes = _sites(key, rank_letters(ord(key[0])), moves, kinds,
                                                 max_letters)
    return chain(matched, zip(inserted, chain.from_iterable(_child_batches(key, q_codes, r_codes))))


def _children(key, moves, max_letters):
    """_expand(key, moves, max_letters)'s child keys, no MoveSite built, lazy below the budget."""
    matched, _none, q_codes, r_codes = _sites(key, None, moves, ALL_KINDS, max_letters)
    if not (q_codes or r_codes):  # no insertion fits: the matched children, as one list
        return matched
    return chain(matched, chain.from_iterable(_child_batches(key, q_codes, r_codes)))


def _step_site(source, target, moves):
    """The first site of find_move_sites(source) whose child is target, or None.

    Deletions read the source's doubled letters (M1) or xy..yx pairs (M2) by first occurrence,
    which is site order; an insertion undoes the first of the target's that gives the source.
    """
    grow = ord(target[0]) - ord(source[0])
    if not grow:
        return next((site for site, child in _expand(source, moves, None, ("M3", "M3inv"))
                     if child == target), None)
    (key, other), pair = (target, source) if grow > 0 else (source, target), abs(grow) == 2
    n = ord(key[0])
    packed, codes = key[1:len(key) - n], key[len(key) - n:]
    s, admitted = packed + "\0", _coded(moves)[2 + pair]  # Q or R codes
    for b in range(n):
        f, l = packed.find(chr(b + 1)), packed.rfind(chr(b + 1))
        ranks, starts = ((ord(s[f - 1]) - 1, b), (f - 1, l)) if pair else ((b,), (f,))
        if (s[l + 1] == s[f - 1] != "\0" if pair else l == f + 1) \
                and (code := "".join([codes[r] for r in ranks])) in admitted \
                and _deleted(n, packed, codes, ranks[0], b) == other:
            kind = ALL_KINDS[pair + 4 * (grow > 0)]  # M1, M2, M1ins or M2ins
            if grow < 0:
                flat = [i - packed.count("\0", 0, i) for i in starts]
                return MoveSite(kind, tuple([p + d for p in flat for d in (0, 1)]),
                                tuple([rank_letters(n)[r] for r in ranks]))
            src, at = other[1:len(other) - n + grow], (starts[0], l - 2)[:grow]  # in the source
            gaps = [(src.count("\0", 0, i), i - src.rfind("\0", 0, i) - 1) for i in at]
            return MoveSite(kind, gaps=tuple(gaps), symbols=tuple(map(_symbol_of.get, code)))
    return None


def _child_batches(key, q_codes, r_codes):
    # Lists of insertion child keys in site order: each gap with each Q
    # code, then each gap pair with each R code, gaps being the packed
    # indices 0..len(packed).
    #
    # An insertion at packed index g gives its first new letter the rank
    # top + 1, top being the largest rank before g.  Every rank above top
    # moves up by the number of new letters, and none stands before g; so
    # a child is packed[:g], the new letters, the shifted packed string
    # from g on, and the codes with the new ones after the first top.
    # The gaps of one top share one shifted string and make one batch of
    # M1ins children; M2ins children come in one batch per first gap.
    n = ord(key[0])
    packed, codes = key[1:len(key) - n], key[len(key) - n:]
    # The gaps of top t are range(bounds[t], bounds[t + 1]): the rank t
    # letter first occurs just before bounds[t].  shifted(by)[top] is the
    # packed string with every rank above top moved up by `by`.
    bounds = [0, *[packed.find(chr(r)) + 1 for r in range(1, n + 1)], len(packed) + 1]

    def shifted(by):
        out = [packed]
        for r in range(n, 0, -1):
            out.append(out[-1].replace(chr(r), chr(r + by)))
        return out[::-1]

    if q_codes:
        lead = chr(n + 1) + packed
        for top, moved in enumerate(shifted(1)):
            new = chr(top + 1) * 2
            parts = [codes[:top] + c + codes[top:] for c in q_codes]
            yield [head + part for g in range(bounds[top], bounds[top + 1])
                   for head in (lead[:g + 1] + new + moved[g:],) for part in parts]
    if r_codes:
        # Like apply_move, a second gap equal to the first puts the closing
        # pair after the opening one.  head[:g2 + 3] is everything before
        # the closing pair at g2, and ends[g2 - g0] everything after it but
        # the codes.
        lead, end = chr(n + 2) + packed, len(packed) + 1
        for top, moved in enumerate(shifted(2)):
            g0, opening = bounds[top], chr(top + 1) + chr(top + 2)
            ends = [opening[::-1] + moved[g2:] for g2 in range(g0, end)]
            parts = [codes[:top] + c + codes[top:] for c in r_codes]
            for g in range(g0, bounds[top + 1]):
                head = lead[:g + 1] + opening + moved[g:]
                yield [body + part for g2 in range(g, end)
                       for body in (head[:g2 + 3] + ends[g2 - g0],) for part in parts]


@lru_cache(maxsize=1024)
def _drop_table(n, a, b):
    # str.translate table on ranks 0..n that deletes ranks a <= b and
    # moves the ranks above them down; the separator stays.
    return tuple(None if r in (a, b) else r - (r > a) - (a < b < r) for r in range(n + 1))
