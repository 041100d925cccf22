from collections import deque
from itertools import combinations

import pytest

from nanowords import (
    Alphabet,
    CanonicalForm,
    MoveSystem,
    builtin_data,
    canonical_form,
    enumerate_nanophrases,
    phi,
)
from nanowords.classification import SetContext, classify
from nanowords.core import ConsistencyError
from nanowords.invariants import invariant_lines
from nanowords.kernel import _expand
from nanowords.moves import NeighborCache
import nanowords.classification
from conftest import ph


def _context(name, k):
    data = builtin_data(name, k)
    if name == "ornaments":
        return SetContext(name, data.lifted.alphabet, 1, data.lifted_moves, data.lifted)
    return SetContext(name, data.base_alphabet, k, data.base_moves, None)


def _reference_classify(ctx, n_letters, max_letters, max_states):
    """The earlier classify: one multi-source closure joined by a union-find."""
    seeds, seen = [], set()
    for n in range(n_letters + 1):
        for phrase in enumerate_nanophrases(ctx.alphabet, n, ctx.k):
            form = canonical_form(phrase)
            if form not in seen:
                seen.add(form)
                seeds.append(form)
    parent = {}

    def find(item):
        while parent[item] is not item:
            item = parent[item]
        return item

    cache = NeighborCache(ctx.moves)
    visited = set(seeds)
    for form in seeds:
        parent[form] = form
    queue = deque(seeds)
    truncated = False
    while queue and not truncated:
        form = queue.popleft()
        for _site, child in cache.within(form.key, max_letters):
            child = CanonicalForm.from_key(child)
            parent.setdefault(child, child)
            ra, rb = find(form), find(child)
            if ra is not rb:
                parent[rb] = ra
            if child not in visited:
                visited.add(child)
                if len(visited) > max_states:
                    truncated = True
                    break
                queue.append(child)
    keys = {form: " ".join(f"{name}={value}" for name, value in invariant_lines(
        form.to_phrase(ctx.alphabet), ctx.moves, ctx.lifted)) for form in visited}
    class_of = {}
    for seed in seeds:
        class_of.setdefault(find(seed), []).append(seed)
    classes = []
    for members in class_of.values():
        members = sorted(members, key=lambda f: f.serialize())
        assert all(keys[m] == keys[members[0]] for m in members)
        classes.append((members[0], keys[members[0]], members))
    classes.sort(key=lambda item: (item[1], item[0].serialize()))
    return seeds, classes, len(visited), truncated


# links and ornaments at k = 2, n = 2, max_letters = 4 are left out: their
# closures pass 20,000 states, and truncated closures are not comparable.
CONFIGS = ([(name, k, n, max_letters)
            for name in ("curves", "links", "diagonal", "ornaments")
            for k in (1, 2) for n in (0, 1, 2)
            for max_letters in range(n, n + 3)
            if not (name in ("links", "ornaments") and (k, n, max_letters) == (2, 2, 4))]
           + [("curves", 1, 3, 3), ("curves", 1, 3, 4),
              ("diagonal", 1, 3, 4), ("diagonal", 1, 3, 5)])


@pytest.mark.parametrize("name,k,n,max_letters", CONFIGS)
def test_per_seed_closures_match_the_union_find(name, k, n, max_letters):
    ctx = _context(name, k)
    ref_seeds, ref_classes, ref_states, ref_truncated = _reference_classify(
        ctx, n, max_letters, 20_000)
    seeds, classes, unknown, states, truncated = classify(ctx, n, max_letters, 20_000)
    assert not (truncated or ref_truncated)
    assert seeds == ref_seeds
    assert [(rep, key, members) for rep, key, members in classes] == ref_classes
    assert states == ref_states
    # No built-in closure escapes the letter budget, so every same-key
    # pair of classes stays unknown.
    assert unknown == [(a[0], b[0]) for a, b in combinations(classes, 2) if a[1] == b[1]]


def test_budget_below_the_enumeration_is_rejected():
    with pytest.raises(ValueError):
        classify(_context("curves", 1), 2, 1, 100)


def _one_way_expand(target):
    # Every other form moves to target, and nothing moves back.
    def expand(form, moves, max_letters):
        return () if form == target else ((None, target),)

    return expand


def test_closures_that_meet_raise(monkeypatch):
    alpha = Alphabet(("a",))
    ctx = SetContext(None, alpha, 1, MoveSystem(alpha, q=(), r=(), s=()), None)
    target = canonical_form(ph(alpha, "ABCABC", {"A": "a", "B": "a", "C": "a"}))
    monkeypatch.setattr(nanowords.classification, "_expand", _one_way_expand(target.key))
    with pytest.raises(ConsistencyError, match="meet"):
        classify(ctx, 1, 3, 100)


def test_invariant_change_along_a_move_raises(monkeypatch, curves):
    ctx = _context("curves", 1)
    target = canonical_form(ph(curves.base_alphabet, "ABAB", {"A": "a", "B": "a"}))
    monkeypatch.setattr(nanowords.classification, "_expand", _one_way_expand(target.key))
    with pytest.raises(ConsistencyError, match="disagree on invariants"):
        classify(ctx, 0, 2, 100)


def test_a_row_that_moves_change_fails_the_gate(monkeypatch):
    # clv replaced by the letter count, which M1 and M2 change: the first
    # closure that deletes or inserts a letter meets a different value.
    import nanowords.invariants as inv

    monkeypatch.setitem(inv._REGISTRY, "clv",
                        (lambda _alphabet, _k, letters, _parts, _profiles: len(letters), str))
    with pytest.raises(ConsistencyError, match="disagree on invariants"):
        classify(_context("curves", 1), 1, 3, 1000)


def test_certified_closures_separate_same_key_classes():
    # With Q and R empty no move changes the letter count, so no closure
    # is cut by the letter budget: every class is complete, and classes
    # that share the (empty) key are still certified distinct.
    alpha = Alphabet(("a",))
    moves = MoveSystem(alpha, q=(), r=(), s=[("a", "a", "a")])
    ctx = SetContext(None, alpha, 1, moves, None)
    seeds, classes, unknown, states, truncated = classify(ctx, 3, 3, 1000)
    assert not truncated and unknown == []
    assert len({key for _rep, key, _members in classes}) == 1
    assert len(classes) < len(seeds)  # M3 joins some of the three-letter words


def test_cut_closures_leave_same_key_classes_unknown():
    # R keeps the letter budget cutting M2ins, so no closure is certified.
    alpha = Alphabet(("a",))
    moves = MoveSystem(alpha, q=(), r=[("a", "a")], s=[("a", "a", "a")])
    _seeds, classes, unknown, _states, truncated = classify(SetContext(None, alpha, 1, moves, None),
                                                            2, 2, 1000)
    assert not truncated
    same_key = [(a[0], b[0]) for a, b in combinations(classes, 2) if a[1] == b[1]]
    assert same_key and unknown == same_key


def _lifted_partition(forms, data, max_letters):
    """The forms grouped by the closure of phi(form) under the lifted moves, and its states."""
    home, groups = {}, {}
    for form in forms:
        start = canonical_form(phi(form.to_phrase(data.base_alphabet), data.lifted)).key
        if start not in home:
            home[start] = start
            queue = deque([start])
            while queue:
                for _site, child in _expand(queue.popleft(), data.lifted_moves, max_letters):
                    if child not in home:
                        home[child] = start
                        queue.append(child)
        groups.setdefault(home[start], set()).add(form)
    return {frozenset(group) for group in groups.values()}, len(home)


def _assert_phi_keeps_the_partition(name, k, n, classes, base_states, lifted_states):
    # Base classes equal lifted classes through phi, within one letter
    # budget: phi(p) and phi(q) are joined by lifted moves inside n + 2
    # letters exactly when p and q are joined by base moves.  Nothing is
    # certified (Q is not empty), so this compares the budgeted closures.
    data = builtin_data(name, k)
    ctx = SetContext(name, data.base_alphabet, k, data.base_moves, None)
    seeds, base, _unknown, states, truncated = classify(ctx, n, n + 2, 10 ** 6)
    assert not truncated and (len(base), states) == (classes, base_states)
    lifted, reached = _lifted_partition(seeds, data, n + 2)
    assert reached == lifted_states
    assert lifted == {frozenset(members) for _rep, _key, members in base}


@pytest.mark.parametrize("name,k,n,classes,base_states,lifted_states", [
    ("curves", 2, 2, 25, 6_323, 21_715),
    ("diagonal", 2, 3, 29, 6_020, 27_252),
])
def test_base_classes_are_lifted_classes_through_phi(name, k, n, classes, base_states,
                                                     lifted_states):
    _assert_phi_keeps_the_partition(name, k, n, classes, base_states, lifted_states)


@pytest.mark.slow
@pytest.mark.parametrize("name,k,n,classes,base_states,lifted_states", [
    ("links", 2, 2, 97, 82_749, 292_317),
    ("curves", 2, 3, 291, 139_843, 622_611),
])
def test_base_classes_are_lifted_classes_through_phi_at_scale(name, k, n, classes, base_states,
                                                              lifted_states):
    _assert_phi_keeps_the_partition(name, k, n, classes, base_states, lifted_states)
