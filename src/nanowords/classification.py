"""Classification of enumerated phrases up to the gated moves.

`classify` joins move-connected forms inside letter and state budgets
and labels each class with its guaranteed invariants, which must agree
along every move.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import Alphabet, ConsistencyError, MoveSystem, canonical_form, enumerate_nanophrases
from .invariants import invariant_lines
from .lift import LiftedAlphabet
from .moves import NeighborCache


@dataclass
class SetContext:
    """A set's system; `lifted` is set when its phrases are lifted words."""

    builtin: str
    alphabet: Alphabet
    k: int
    moves: MoveSystem
    lifted: LiftedAlphabet


class _UnionFind:
    """Union-find over forms.

    Every stored parent is the key object it stands for, and a root maps
    to itself as that same object, so the walks test identity and never
    call CanonicalForm.__eq__.
    """

    def __init__(self):
        self.parent = {}

    def add(self, item):
        self.parent.setdefault(item, item)

    def find(self, item):
        root = item
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[item] is not root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[rb] = ra


def _set_invariant_key(ctx, form):
    lines = invariant_lines(form.to_phrase(ctx.alphabet), ctx.moves, ctx.lifted)
    return " ".join(f"{name}={value}" for name, value in lines)


def classify(ctx, n_letters, max_letters, max_states):
    """Partition enumerated phrases by invariants, refined by move search.

    Returns (seeds, classes, unknown_pairs, states, truncated) where each
    class is (representative, invariant key, member list).  Every state
    reached inside the budgets is checked for invariant constancy along
    moves; a violation raises ConsistencyError.
    """
    seeds = []
    seen = set()
    for n in range(n_letters + 1):
        for phrase in enumerate_nanophrases(ctx.alphabet, n, ctx.k):
            form = canonical_form(phrase)
            if form not in seen:
                seen.add(form)
                seeds.append(form)
    cache = NeighborCache(ctx.moves)
    uf = _UnionFind()
    visited = set()
    queue = deque()
    for form in seeds:
        uf.add(form)
        visited.add(form)
        queue.append(form)
    truncated = False
    while queue and not truncated:
        form = queue.popleft()
        for _site, child in cache.within(form, max_letters):
            uf.add(child)
            uf.union(form, child)
            if child not in visited:
                visited.add(child)
                if len(visited) > max_states:
                    truncated = True
                    break
                queue.append(child)

    keys = {form: _set_invariant_key(ctx, form) for form in visited}
    by_root = {}
    for form in sorted(visited, key=lambda f: f.serialize()):
        by_root.setdefault(uf.find(form), []).append(form)
    for members in by_root.values():
        first = members[0]
        offender = next((m for m in members if keys[m] != keys[first]), None)
        if offender is not None:
            raise ConsistencyError(
                f"move-connected states disagree on invariants: "
                f"{first.serialize()!r} vs {offender.serialize()!r}")

    class_of = {}
    for seed in seeds:
        class_of.setdefault(uf.find(seed), []).append(seed)
    classes = []
    for root, members in class_of.items():
        rep = min(members, key=lambda f: f.serialize())
        classes.append((rep, keys[rep], sorted(members, key=lambda f: f.serialize())))
    classes.sort(key=lambda item: (item[1], item[0].serialize()))

    unknown_pairs = []
    if truncated:
        by_key = {}
        for rep, key, _members in classes:
            by_key.setdefault(key, []).append(rep)
        for key in sorted(by_key):
            reps = sorted(by_key[key], key=lambda f: f.serialize())
            unknown_pairs.extend(combinations(reps, 2))
    return seeds, classes, unknown_pairs, len(visited), truncated
