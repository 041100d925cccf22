"""Rewrite moves on nanophrases and a bounded equivalence search.

The forward moves are: deletion of an adjacent doubled letter (M1),
deletion of an xAByBAz letter pair (M2), and transposition of three
adjacent pairs xAByACzBCt <-> xBAyCAzCBt (M3 and its mirror M3inv).
M1ins and M2ins insert fresh letters and are the inverses of M1 and M2.
Admissibility is gated by a MoveSystem: M1 needs the letter's symbol in
Q, M2 the ordered symbol pair in R, M3/M3inv the ordered triple in S.

Matched pairs must be strictly adjacent with no component boundary
between them; the surrounding context may span components freely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    AlphabetMismatch,
    CanonicalForm,
    ConsistencyError,
    NanowordError,
    Nanophrase,
    canonical_form,
    rank_letters,
)
from .invariants import invariant_lines
from .kernel import ALL_KINDS, MoveSite, _children, _expand, _sites, _step_site


class StaleSite(NanowordError):
    """The pattern recorded in a move site is no longer present."""


EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"


def find_move_sites(phrase, moves, kinds=None, max_letters=None):
    """All admissible sites of the requested kinds (None: every kind), in a fixed order.

    phrase is a Nanophrase, a CanonicalForm or a form's key, each read off
    a key by kernel._sites.  A phrase is read off its canonical form's
    key, which keeps its positions and component boundaries and whose
    rank r letter is phrase.letters[r - 1], so its sites name its own
    letters.  A form carries no alphabet and is read over moves.alphabet
    as form.to_phrase would build it, so its sites name letters by
    rank_letters and replay on that phrase.

    Sites come out grouped by kind in ALL_KINDS order; within a kind they
    ascend by positions, then gaps, then symbols.

    Insertion kinds are enumerated only when max_letters leaves room for
    the new letters.  A kind not in ALL_KINDS raises NanowordError.
    """
    if isinstance(phrase, CanonicalForm):
        phrase = phrase.key
    if isinstance(phrase, str):
        key, names = phrase, rank_letters(ord(phrase[0]))
    elif moves.alphabet != phrase.alphabet:
        raise AlphabetMismatch("move system and phrase use different alphabets")
    else:
        key, names = canonical_form(phrase).key, phrase.letters
    wanted = set(ALL_KINDS if kinds is None else kinds)
    if not wanted.issubset(ALL_KINDS):
        raise NanowordError(f"unknown move kinds {sorted(wanted.difference(ALL_KINDS))}")
    matched, inserted, _q, _r = _sites(key, names, moves, wanted, max_letters)
    return [site for site, _child in matched] + list(inserted)


_INT = frozenset([int])


def _check_match(phrase, site, expected):
    pos = site.positions
    flat, comp_of = phrase.flat, phrase.comp_of
    if not _INT.issuperset(map(type, pos)):
        raise StaleSite(f"{site.kind} site positions are not ints")
    if len(pos) != len(expected) or not pos or pos[0] < 0 or pos[-1] >= len(flat):
        raise StaleSite(f"{site.kind} site out of range")
    if any(a >= b for a, b in zip(pos, pos[1:])):
        raise StaleSite(f"{site.kind} site positions are not increasing")
    for t in range(0, len(pos), 2):
        if pos[t + 1] != pos[t] + 1 or comp_of[pos[t]] != comp_of[pos[t + 1]]:
            raise StaleSite(f"{site.kind} site pairs are no longer adjacent")
    if tuple(flat[p] for p in pos) != expected:
        raise StaleSite(f"{site.kind} letters no longer match the site")


# The letters a matched kind expects at its positions, as indices into
# site.letters, and the number of gaps an insertion kind fills.
_MATCHED = {"M1": (0, 0), "M2": (0, 1, 1, 0), "M3": (0, 1, 0, 2, 1, 2), "M3inv": (1, 0, 2, 0, 2, 1)}
_INSERTED = {"M1ins": 1, "M2ins": 2}


def apply_move(phrase, site):
    """Apply a site to a phrase, revalidating the matched pattern.

    Matched kinds recheck adjacency and the letters at the recorded
    positions; insertion kinds recheck their gaps and symbols.  A site
    that does not fit the phrase, or whose fields do not match its kind's
    arity and types (int positions, (int, int) gaps, hashable letters and
    symbols), raises StaleSite.  Symbol gating is the finder's job.  Fresh
    letters x (M1ins) or x, y (M2ins) are the first of N1, N2, ... that
    the phrase does not use; they go in as x x, or as x y at the first gap
    and y x at the second.
    """
    kind = site.kind
    if not (type(kind) is str and type(site.positions) is type(site.letters)
            is type(site.gaps) is type(site.symbols) is tuple):
        raise StaleSite(f"{kind} site fields have the wrong types")
    if kind in _MATCHED:
        pattern = _MATCHED[kind]
        if len(site.letters) != len(pattern) // 2:
            raise StaleSite(f"{kind} site needs {len(pattern) // 2} letters")
        _check_match(phrase, site, tuple(map(site.letters.__getitem__, pattern)))
        flat, drop = list(phrase.flat), ()
        if kind in ("M1", "M2"):
            drop = set(site.positions)  # Nanophrase keeps only the rest's proj
        else:
            for p in site.positions[::2]:
                flat[p], flat[p + 1] = flat[p + 1], flat[p]
        comps = [[] for _ in phrase.components]
        for p, ltr in enumerate(flat):
            if p not in drop:
                comps[phrase.comp_of[p]].append(ltr)
        return Nanophrase(phrase.alphabet, comps, phrase.proj, validate=False)
    if kind not in _INSERTED:
        raise NanowordError(f"unknown move kind {kind!r}")
    gaps, symbols, comps = site.gaps, site.symbols, list(phrase.components)
    if len(gaps) != _INSERTED[kind] or len(symbols) != len(gaps):
        raise StaleSite(f"{kind} site needs {_INSERTED[kind]} gaps and symbols")
    for gap in gaps:
        c, o = gap if type(gap) is tuple and len(gap) == 2 else (None, None)
        if type(c) is not int or type(o) is not int:
            raise StaleSite(f"{kind} gaps are not (int, int) pairs")
        if not (0 <= c < len(comps) and 0 <= o <= len(comps[c])):
            raise StaleSite("insertion gap out of range")
    if gaps[-1] < gaps[0]:  # two gaps at most
        raise StaleSite(f"{kind} gaps out of order")
    unknown = [s for s in symbols if s not in phrase.alphabet.symbols]  # hashes no symbol
    if unknown:
        raise StaleSite(f"insertion symbols not in the alphabet: {unknown}")
    names, i = [], 0
    while len(names) < len(gaps):
        i += 1
        if (name := f"N{i}") not in phrase.proj:
            names.append(name)
    x, y = names[0], names[-1]  # y is x for M1ins
    for (c, o), pair in zip(reversed(gaps), ((y, x), (x, y))):
        comps[c] = comps[c][:o] + pair + comps[c][o:]
    proj = {**phrase.proj, x: symbols[0], y: symbols[-1]}
    return Nanophrase(phrase.alphabet, comps, proj, validate=False)


@dataclass(frozen=True)
class PathStep:
    """One replayable step: a site on the previous canonical form."""

    site: MoveSite
    result: CanonicalForm

    def describe(self, index):
        names = ",".join(self.site.letters or self.site.symbols) or "-"
        return f"{index}\t{self.site.kind}\t{names}\t{self.result}"


@dataclass(frozen=True)
class Verdict:
    status: str
    path: tuple = None
    explored: int = 0
    reason: str = ""
    separator: str = None  # set by decide: the first invariant row that differs

    @property
    def is_equivalent(self):
        return self.status == EQUIVALENT


def _renamed(site, letters):
    # The site with each rank letter (see rank_letters) read as the letter of
    # that rank in `letters`; any other name reads as None and matches none.
    # A site whose letters are not hashable is left for apply_move to reject.
    name = dict(zip(rank_letters(len(letters)), letters)).get
    try:
        return site if not site.letters else MoveSite(site.kind, site.positions,
                                                      tuple(map(name, site.letters)))
    except TypeError:
        return site


def replay_path(start, path, alphabet):
    """Re-apply every step from a phrase or canonical form; return the final form.

    The steps run on one phrase: each applies to the phrase the last one
    returned, with its site's rank letters read as that phrase's letters.
    Raises ConsistencyError when any step fails to reproduce its
    recorded result.
    """
    phrase = start.to_phrase(alphabet) if isinstance(start, CanonicalForm) else start
    for step in path:
        phrase = apply_move(phrase, _renamed(step.site, phrase.letters))
        result = canonical_form(phrase)
        if result != step.result:
            raise ConsistencyError(
                f"replay diverged at {step.site.kind}: {result} != {step.result}")
    return canonical_form(phrase)


class NeighborCache:
    """Memoized neighbor expansion for callers that share it across searches.

    Neighbors are cached per (form key, slack), where slack = min(2,
    max_letters - n) is how many letters an insertion may add, so only
    children inside the budget are built and one cache stays correct
    across searches with different budgets.  Each list is _expand's
    whole sequence of (site, child key) pairs, built at the first miss.
    A budget below the form's letter count is rejected with ValueError,
    as `equivalent` and `classify` reject it.
    """

    def __init__(self, moves):
        self.moves = moves
        self._table = {}

    def raw(self, key, slack):
        got = self._table.get((key, slack))
        if got is None:
            got = tuple(_expand(key, self.moves, ord(key[0]) + slack))
            self._table[key, slack] = got
        return got

    def within(self, key, max_letters):
        if max_letters < ord(key[0]):
            raise ValueError("max_letters must cover the form")
        return self.raw(key, min(2, max_letters - ord(key[0])))


def _budget_cut(key, moves, max_letters):
    # True when the letter budget suppresses an admissible insertion at
    # the key's form: every form has a gap, so M1ins needs only a Q member
    # and one letter of slack, M2ins an R member and two.
    slack = max_letters - ord(key[0])
    return (bool(moves.q) and slack < 1) or (bool(moves.r) and slack < 2)


def equivalent(phrase1, phrase2, moves, max_letters, max_states,
               neighbor_cache=None):
    """Decide relatedness by moves, bidirectionally, within budgets.

    Returns a Verdict: EQUIVALENT with a replayable path, NOT_EQUIVALENT
    when a reachable set was exhausted without meeting the other side
    and the letter budget cut no move from it (or when the component
    counts, or with Q empty the letter-count parities, differ), or
    UNKNOWN when max_states was hit first or the budget cut the closed
    set.

    Without neighbor_cache the search reads child keys only, each
    insertion batch built as it is reached (kernel._children), so none is
    built past the child that meets the other side; nothing is kept.
    Callers running several searches may share one (same verdicts).
    """
    if phrase1.alphabet != phrase2.alphabet or moves.alphabet != phrase1.alphabet:
        raise AlphabetMismatch("equivalence needs a single shared alphabet")
    if max_letters < max(phrase1.n_letters, phrase2.n_letters):
        raise ValueError("max_letters must cover both input phrases")
    if phrase1.k != phrase2.k:
        return Verdict(NOT_EQUIVALENT, reason="component counts differ")
    if not moves.q and (phrase1.n_letters - phrase2.n_letters) % 2:
        # Without M1/M1ins every move keeps the letter count's parity.
        return Verdict(NOT_EQUIVALENT, reason="letter-count parities differ")
    c1, c2 = canonical_form(phrase1), canonical_form(phrase2)
    if c1 == c2:
        return Verdict(EQUIVALENT, path=(), explored=1, reason="isomorphic")

    if neighbor_cache is not None and neighbor_cache.moves != moves:
        raise ValueError("neighbor cache was built for a different move system")
    visited = ({c1.key: None}, {c2.key: None})  # child key -> parent key
    frontiers = [[c1.key], [c2.key]]
    cut = [False, False]
    explored = 2

    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        here, there = visited[side], visited[1 - side]
        fresh = []
        for state in frontiers[side]:
            cut[side] = cut[side] or _budget_cut(state, moves, max_letters)
            for child in (_children(state, moves, max_letters) if neighbor_cache is None else
                          [child for _site, child in neighbor_cache.within(state, max_letters)]):
                if child in here:
                    continue
                here[child] = state
                explored += 1
                if child in there:
                    path = _assemble_path(visited, child, moves)
                    if replay_path(phrase1, path, phrase1.alphabet) != c2:
                        raise ConsistencyError("assembled path does not end at the target")
                    return Verdict(EQUIVALENT, path=path, explored=explored,
                                   reason=f"met after exploring {explored} states")
                if explored > max_states:
                    return Verdict(UNKNOWN, explored=explored,
                                   reason=f"state budget {max_states} exhausted")
                fresh.append(child)
        frontiers[side] = fresh
    closed = 1 if frontiers[0] else 0
    if cut[closed]:
        return Verdict(UNKNOWN, explored=explored, reason=(
            f"reachable set of side {closed + 1} closed only because the "
            f"letter budget {max_letters} cut moves"))
    return Verdict(
        NOT_EQUIVALENT, explored=explored,
        reason=f"reachable set of side {closed + 1} closed with no move cut by the budget")


def decide(phrase1, phrase2, moves, lifted, max_letters, max_states):
    """The final Verdict on two phrases: equivalent's, checked by the invariant rows.

    The rows are the certificate, so they come before the search.  When one
    differs, a found path raises ConsistencyError and an inconclusive search
    becomes NOT_EQUIVALENT.  `lifted` selects the level as in invariant_lines.
    """
    rows = zip(invariant_lines(phrase1, moves, lifted), invariant_lines(phrase2, moves, lifted))
    separator = next((name for (name, v1), (_name, v2) in rows if v1 != v2), None)
    verdict = equivalent(phrase1, phrase2, moves, max_letters, max_states)
    if separator is None:
        return verdict
    if verdict.is_equivalent:
        raise ConsistencyError(f"search found an equivalence but invariant {separator} differs")
    reason = verdict.reason if verdict.status == NOT_EQUIVALENT else (
        f"invariant {separator} differs; search inconclusive ({verdict.reason})")
    return replace(verdict, status=NOT_EQUIVALENT, reason=reason, separator=separator)


def _assemble_path(visited, meet, moves):
    """The PathSteps from side 1's start through meet to side 2's start.

    A step's site is the first of its source whose child is the next key (kernel._step_site):
    the site the search met it by on side 1, and the first move undoing a side-2 link.
    """
    keys = [meet]
    while visited[0][keys[-1]] is not None:
        keys.append(visited[0][keys[-1]])
    keys.reverse()
    while visited[1][keys[-1]] is not None:
        keys.append(visited[1][keys[-1]])
    steps = []
    for source, target in zip(keys, keys[1:]):
        site = _step_site(source, target, moves)
        if site is None:
            raise ConsistencyError("no move found while assembling a path")
        steps.append(PathStep(site, CanonicalForm.from_key(target)))
    return tuple(steps)
