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
from .kernel import ALL_KINDS, MATCH_KINDS, MoveSite, _expand, _inserted, _sites


class StaleSite(NanowordError):
    """The pattern recorded in a move site is no longer present."""


EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"


def find_move_sites(phrase, moves, kinds=None, max_letters=None):
    """All admissible sites of the requested kinds (None: every kind), in a fixed order.

    phrase is a Nanophrase, a CanonicalForm or a form's key.  A form
    carries no alphabet and is read over moves.alphabet as
    form.to_phrase would build it, so its sites name letters by
    rank_letters and replay on that phrase.

    Sites come out grouped by kind in ALL_KINDS order; within a kind they
    ascend by positions, then gaps, then symbols.

    Insertion kinds are enumerated only when max_letters leaves room for
    the new letters.
    """
    wanted = set(ALL_KINDS if kinds is None else kinds)
    if isinstance(phrase, CanonicalForm):
        phrase = phrase.key
    if isinstance(phrase, str):
        matched, inserted, _q, _r = _sites(phrase, rank_letters(ord(phrase[0])), moves, wanted,
                                           max_letters)
        return matched + list(inserted)
    if moves.alphabet != phrase.alphabet:
        raise AlphabetMismatch("move system and phrase use different alphabets")
    # A key is read by the expansion kernel; a phrase, which would first
    # have to be packed into one, is scanned on its own letters.
    # partner[p] is the other occurrence of the letter at p; joined[p] says
    # that p and p + 1 are adjacent in one component.  The first pair
    # (i, i + 1) of a matched pattern names its partner pairs, so each kind
    # has one candidate per adjacent pair, tested in O(1).  Only the
    # matched kinds read them.
    sites = []
    if not wanted.isdisjoint(MATCH_KINDS):
        flat, comp_of, proj = phrase.flat, phrase.comp_of, phrase.proj
        joined = [a == b for a, b in zip(comp_of, comp_of[1:])] + [False]
        adj = [p for p, ok in enumerate(joined) if ok]
        partner, first = [0] * len(flat), {}
        for p, ltr in enumerate(flat):
            other = first.setdefault(ltr, p)
            partner[p], partner[other] = other, p

    if "M1" in wanted:
        for p in adj:
            if flat[p] == flat[p + 1] and proj[flat[p]] in moves.q:
                sites.append(MoveSite("M1", (p, p + 1), (flat[p],)))

    if "M2" in wanted:
        for i in adj:
            j = partner[i + 1]
            if j > i + 1 and joined[j] and partner[i] == j + 1:
                a, b = flat[i], flat[i + 1]
                if (proj[a], proj[b]) in moves.r:
                    sites.append(MoveSite("M2", (i, i + 1, j, j + 1), (a, b)))

    if "M3" in wanted:
        for i in adj:
            j, l = partner[i], partner[i + 1]
            if i + 1 < j < l - 1 and joined[j] and joined[l] and partner[j + 1] == l + 1:
                a, b, c = flat[i], flat[i + 1], flat[j + 1]
                if (proj[a], proj[b], proj[c]) in moves.s:
                    sites.append(MoveSite("M3", (i, i + 1, j, j + 1, l, l + 1), (a, b, c)))

    if "M3inv" in wanted:
        for i in adj:
            j = partner[i + 1] - 1
            if j <= i + 1:  # also keeps j from going negative
                continue
            l = partner[j]
            if j < l - 1 and joined[j] and joined[l] and partner[i] == l + 1:
                a, b, c = flat[i + 1], flat[i], flat[j]
                if (proj[a], proj[b], proj[c]) in moves.s:
                    sites.append(MoveSite("M3inv", (i, i + 1, j, j + 1, l, l + 1), (a, b, c)))

    inserted, _q, _r = _inserted(phrase.n_letters, phrase.components, moves, wanted, max_letters)
    return sites + list(inserted)


def _check_match(phrase, site, expected):
    pos = site.positions
    flat, comp_of = phrase.flat, phrase.comp_of
    if len(pos) != len(expected) or not pos or pos[0] < 0 or pos[-1] >= len(flat):
        raise StaleSite(f"{site.kind} site out of range")
    if any(a >= b for a, b in zip(pos, pos[1:])):
        raise StaleSite(f"{site.kind} site positions are not increasing")
    for t in range(0, len(pos), 2):
        if pos[t + 1] != pos[t] + 1 or comp_of[pos[t]] != comp_of[pos[t + 1]]:
            raise StaleSite(f"{site.kind} site pairs are no longer adjacent")
    if tuple(flat[p] for p in pos) != expected:
        raise StaleSite(f"{site.kind} letters no longer match the site")


def _regroup(phrase, flat, drop=()):
    # Split a letter list laid out like phrase.flat into its components,
    # leaving out the positions in drop.
    comps = [[] for _ in phrase.components]
    for p, ltr in enumerate(flat):
        if p not in drop:
            comps[phrase.comp_of[p]].append(ltr)
    return comps


def _fresh_names(existing, count):
    out, i = [], 1
    while len(out) < count:
        name = f"N{i}"
        if name not in existing:
            out.append(name)
        i += 1
    return out


def apply_move(phrase, site):
    """Apply a site to a phrase, revalidating the matched pattern.

    Matched kinds recheck adjacency and the letters at the recorded
    positions (StaleSite otherwise); symbol gating is the finder's job.
    """
    kind = site.kind
    if kind == "M1":
        (a,) = site.letters
        _check_match(phrase, site, (a, a))
        return _delete(phrase, site.positions, (a,))
    if kind == "M2":
        a, b = site.letters
        _check_match(phrase, site, (a, b, b, a))
        return _delete(phrase, site.positions, (a, b))
    if kind in ("M3", "M3inv"):
        a, b, c = site.letters
        expected = (a, b, a, c, b, c) if kind == "M3" else (b, a, c, a, c, b)
        _check_match(phrase, site, expected)
        flat = list(phrase.flat)
        for t in range(0, 6, 2):
            p = site.positions[t]
            flat[p], flat[p + 1] = flat[p + 1], flat[p]
        return Nanophrase(phrase.alphabet, _regroup(phrase, flat), phrase.proj,
                          validate=False)
    if kind == "M1ins":
        (gap,) = site.gaps
        (sym,) = site.symbols
        _check_insertion(phrase, (gap,), (sym,))
        (name,) = _fresh_names(set(phrase.letters), 1)
        comps = list(phrase.components)
        c, o = gap
        comps[c] = comps[c][:o] + (name, name) + comps[c][o:]
        proj = dict(phrase.proj)
        proj[name] = sym
        return Nanophrase(phrase.alphabet, comps, proj, validate=False)
    if kind == "M2ins":
        gap1, gap2 = site.gaps
        s1, s2 = site.symbols
        if gap2 < gap1:
            raise StaleSite("M2ins gaps out of order")
        _check_insertion(phrase, site.gaps, site.symbols)
        na, nb = _fresh_names(set(phrase.letters), 2)
        comps = list(phrase.components)
        (c2, o2) = gap2
        comps[c2] = comps[c2][:o2] + (nb, na) + comps[c2][o2:]
        (c1, o1) = gap1
        comps[c1] = comps[c1][:o1] + (na, nb) + comps[c1][o1:]
        proj = dict(phrase.proj)
        proj[na], proj[nb] = s1, s2
        return Nanophrase(phrase.alphabet, comps, proj, validate=False)
    raise NanowordError(f"unknown move kind {kind!r}")


def _check_insertion(phrase, gaps, symbols):
    for (c, o) in gaps:
        if not (0 <= c < phrase.k and 0 <= o <= len(phrase.components[c])):
            raise StaleSite("insertion gap out of range")
    unknown = [s for s in symbols if s not in phrase.alphabet]
    if unknown:
        raise StaleSite(f"insertion symbols not in the alphabet: {unknown}")


def _delete(phrase, positions, letters):
    comps = _regroup(phrase, phrase.flat, set(positions))
    proj = {ltr: sym for ltr, sym in phrase.proj.items() if ltr not in letters}
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


def replay_path(start, path, alphabet):
    """Re-apply every step from a canonical form; return the final form.

    Raises ConsistencyError when any step fails to reproduce its recorded
    result.
    """
    current = start if isinstance(start, CanonicalForm) else canonical_form(start)
    for step in path:
        result = canonical_form(apply_move(current.to_phrase(alphabet), step.site))
        if result != step.result:
            raise ConsistencyError(
                f"replay diverged at {step.site.kind}: {result} != {step.result}")
        current = step.result
    return current


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

    Without neighbor_cache, each state's children are built in batches
    as the search reads them (see _expand), and no batch is built past
    the child that meets the other side; nothing is kept.  Callers
    running several searches may share one (same verdicts).
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
    meet = None

    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        here, there = visited[side], visited[1 - side]
        fresh = []
        for state in frontiers[side]:
            cut[side] = cut[side] or _budget_cut(state, moves, max_letters)
            children = (_expand(state, moves, max_letters) if neighbor_cache is None
                        else neighbor_cache.within(state, max_letters))
            for _site, child in children:
                if child in here:
                    continue
                here[child] = state
                explored += 1
                if child in there:
                    meet = child
                    break
                if explored > max_states:
                    return Verdict(UNKNOWN, explored=explored,
                                   reason=f"state budget {max_states} exhausted")
                fresh.append(child)
            if meet is not None:
                break
        if meet is not None:
            break
        frontiers[side] = fresh
    else:
        closed = 1 if frontiers[0] else 0
        if cut[closed]:
            return Verdict(UNKNOWN, explored=explored, reason=(
                f"reachable set of side {closed + 1} closed only because the "
                f"letter budget {max_letters} cut moves"))
        return Verdict(
            NOT_EQUIVALENT, explored=explored,
            reason=f"reachable set of side {closed + 1} closed with no move cut by the budget")

    path = _assemble_path(visited, meet, moves, max_letters)
    final = replay_path(c1, path, phrase1.alphabet)
    if final != c2:
        raise ConsistencyError("assembled path does not end at the target")
    return Verdict(EQUIVALENT, path=path, explored=explored,
                   reason=f"met after exploring {explored} states")


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


# The kinds of a step that changes the letter count by the key; a kind
# keeps its order in find_move_sites, so scanning only these meets the
# same first site as a scan of all kinds.
_KINDS_BY_DELTA = {-2: ("M2",), -1: ("M1",), 0: ("M3", "M3inv"),
                   1: ("M1ins",), 2: ("M2ins",)}


def _assemble_path(visited, meet, moves, max_letters):
    # The keys run from side 1's start through meet to side 2's start.  A
    # step's site is the first site of its source whose child is the next
    # key: the site the search met it by on side 1, and the first move
    # undoing a side-2 link.
    keys = [meet]
    while visited[0][keys[-1]] is not None:
        keys.append(visited[0][keys[-1]])
    keys.reverse()
    while visited[1][keys[-1]] is not None:
        keys.append(visited[1][keys[-1]])
    steps = []
    for source, target in zip(keys, keys[1:]):
        kinds = _KINDS_BY_DELTA[ord(target[0]) - ord(source[0])]
        for site, child in _expand(source, moves, max_letters, kinds):
            if child == target:
                steps.append(PathStep(site, CanonicalForm.from_key(target)))
                break
        else:
            raise ConsistencyError("no move found while assembling a path")
    return tuple(steps)
