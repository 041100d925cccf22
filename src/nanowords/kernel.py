"""Move sites and child keys read off canonical-form keys.

The search's expansion kernel.  A key (see core.CanonicalForm) is read
as packed ranks and symbol codes, and each site and each child key is a
few string operations on it, without building a Nanophrase.
moves.apply_move followed by core.canonical_form is the reference that
every child must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .core import _encode_symbols, rank_letters

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
    # find_move_sites on a key, whose rank r letter is names[r - 1]: the
    # matched sites, the insertion sites, and the codes of the symbols
    # those insert ("" and [] when the kind is not asked for or does not
    # fit), in site order.  moves.find_move_sites scans a phrase by
    # another rule and must give the same sites.
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
    # every kind, tested in O(1); symbols are gated by their codes.
    n = ord(key[0])
    packed, codes = key[1:len(key) - n], key[len(key) - n:]
    q_codes, r_codes, q_set, r_set, s_set = _coded(moves)
    matched = []
    if not _MATCH_SET.isdisjoint(kinds):
        s, find = packed + "\0", packed.find  # s has a boundary after the last letter
        letters = list(map(chr, range(1, n + 1)))
        firsts, seconds = list(map(find, letters)), list(map(packed.rfind, letters))
        m1, m2, m3, m3inv = [], [], [], []
        for b, f, l in zip(range(n), firsts, seconds):
            # y (rank b + 1) occurs at f and l; x precedes the first y and
            # z follows the second.  A later x or z found at a second
            # occurrence fails the test after it, so no test asks which.
            if l == f + 1 and codes[b] in q_set:  # yy
                p = f - packed.count("\0", 0, f)
                m1.append(MoveSite("M1", (p, p + 1), (names[b],)))
            x = s[f - 1]  # s[-1] is the final boundary
            if x == "\0":
                continue
            a, z = ord(x) - 1, s[l + 1]
            if z == x:  # xy..yx
                if codes[a] + codes[b] in r_set:
                    p, pl = f - 1 - packed.count("\0", 0, f), l - packed.count("\0", 0, l)
                    m2.append(MoveSite("M2", (p, p + 1, pl, pl + 1), (names[a], names[b])))
            elif z != "\0" and seconds[a] < l - 1 and s[seconds[a] + 1] == z:  # xy..xz..yz
                c = ord(z) - 1
                if codes[a] + codes[b] + codes[c] in s_set:
                    m3.append(_triple("M3", packed, (f - 1, seconds[a], l), names, (a, b, c)))
            c = ord(s[l - 1]) - 1
            if l > f + 1 and c >= 0 and s[seconds[c] + 1] == x:  # xy..zy..zx
                if codes[b] + codes[a] + codes[c] in s_set:
                    m3inv.append(_triple("M3inv", packed, (f - 1, l - 1, seconds[c]), names,
                                         (b, a, c)))
        for kind, found in zip(MATCH_KINDS, (m1, m2, m3, m3inv)):
            if found and kind in kinds:
                matched += found

    inserted, q, r = _inserted(n, packed.split("\0"), moves, kinds, max_letters)
    return matched, inserted, q_codes if q else "", r_codes if r else []


def _inserted(n, components, moves, kinds, max_letters):
    # The insertion sites of a word of n letters in these components,
    # with the Q and R they draw on (empty when the kind is not asked for
    # or the budget leaves no room).
    fits = max_letters is not None
    q = moves.q if fits and "M1ins" in kinds and n + 1 <= max_letters else _NO_SYMBOLS
    r = moves.r if fits and "M2ins" in kinds and n + 2 <= max_letters else _NO_SYMBOLS
    if not (q or r):
        return (), q, r
    lengths = tuple(map(len, components))
    small = 2 * n + len(lengths) <= _SHARED_MAX_GAPS
    return (_shared_insertion_sites if small else _insertion_sites)(lengths, q, r), q, r


_MATCH_SET = frozenset(MATCH_KINDS)
_NO_SYMBOLS = frozenset()


def _triple(kind, packed, starts, names, ranks):
    # An M3 or M3inv site on the pairs at packed indices `starts`.
    flat = [p for i in starts for p in (i - packed.count("\0", 0, i),) for p in (p, p + 1)]
    return MoveSite(kind, tuple(flat), tuple([names[r] for r in ranks]))


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
# so phrases of one shape can share one tuple of them.  A search revisits
# a few small shapes; the memo keeps at most 32 shapes of at most 16 gaps.
_SHARED_MAX_GAPS = 16
_shared_insertion_sites = lru_cache(maxsize=32)(_insertion_sites)


def _expand(key, moves, max_letters, kinds=ALL_KINDS):
    """The (site, child key) pairs of find_move_sites(key, moves, kinds, max_letters).

    The children are the keys of canonical_form(apply_move(phrase, site))
    on the key's form.to_phrase(...), built on the key without a
    Nanophrase.  They come in site order, in batches: every matched
    site's, then the M1ins children of each insertion rank, then the
    M2ins children of each first gap.  A batch is built when its first
    child is read, so a caller that stops early builds no later batch.
    The result is an iterator; it keeps nothing once exhausted.
    """
    n = ord(key[0])
    matched, inserted, q_codes, r_codes = _sites(key, rank_letters(n), moves, kinds,
                                                 max_letters)
    batches = _child_batches(key, matched, q_codes, r_codes)
    return zip(chain(matched, inserted), chain.from_iterable(batches))


def _child_batches(key, matched, q_codes, r_codes):
    # Lists of child keys in site order: the matched sites', then each
    # gap with each Q code, then each gap pair with each R code, gaps
    # being the packed indices 0..len(packed).
    #
    # M1 and M2 delete their letters, which keeps the first-occurrence
    # order: one translate drops their ranks and closes the gaps.  M3 and
    # M3inv swap their three pairs, then one pass renumbers the ranks by
    # first occurrence.
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
    if matched:
        flat = packed.replace("\0", "")
        batch = []
        for site in matched:
            if site.kind in ("M1", "M2"):
                a, b = ord(flat[site.positions[0]]), ord(flat[site.positions[1]])
                a, b = (a, b) if a <= b else (b, a)
                batch.append(chr(n - 1 - (a < b)) + packed.translate(_drop_table(n, a, b))
                             + codes[:a - 1] + codes[a:b - 1] + codes[b:])
            else:
                batch.append(_transposed(n, packed, codes, site))
        yield batch
    if not (q_codes or r_codes):
        return
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


def _transposed(n, packed, codes, site):
    # The child key of an M3 or M3inv site: its three pairs swapped, then
    # the ranks renumbered by first occurrence.
    chars = list(packed)
    at = [i for i, ch in enumerate(packed) if ch != "\0"]
    for p in site.positions[::2]:
        i = at[p]
        chars[i], chars[i + 1] = chars[i + 1], chars[i]
    moved = "".join(chars)
    order = dict.fromkeys(moved.replace("\0", ""))
    relabel = {ord(ch): rank for rank, ch in enumerate(order, 1)}
    return (chr(n) + moved.translate(relabel)
            + "".join([codes[ord(ch) - 1] for ch in order]))


@lru_cache(maxsize=1024)
def _drop_table(n, a, b):
    # str.translate table on ranks 0..n that deletes ranks a <= b and
    # moves the ranks above them down; the separator stays.
    return tuple(None if r in (a, b) else r - (r > a) - (a < b < r) for r in range(n + 1))
