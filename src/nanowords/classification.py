"""Classification of enumerated phrases up to the gated moves.

`classify` closes one class at a time: a breadth-first search from each
enumerated form that no earlier closure reached.  The seeds are the
enumeration's keys (core._enumerate_keys), so no phrase is built.
Inside the letter budget every move has its inverse (M1/M1ins, M2/M2ins,
M3/M3inv, each gated by the same Q/R/S member), so one seed's closure is
its whole class.  A state at the letter budget, where no insertion fits,
gets its matched children as one list (kernel._children).  Each class is
labelled with its guaranteed invariants, which must agree along every
move: every state's raw values are read off its key (see
invariants.key_reader) and compared with its seed's.  Only the returned
classes are rendered, and each form is serialized once, for both orders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter

from .core import Alphabet, CanonicalForm, ConsistencyError, MoveSystem, _enumerate_keys
from .invariants import key_reader, render_rows
from .kernel import _budget_cut, _children
from .lift import LiftedAlphabet

_form = CanonicalForm.from_key  # closures hold keys; forms leave them


@dataclass
class SetContext:
    """A set's system; `lifted` is set when its phrases are lifted words."""

    builtin: str
    alphabet: Alphabet
    k: int
    moves: MoveSystem
    lifted: LiftedAlphabet


def classify(ctx, n_letters, max_letters, max_states):
    """Partition enumerated phrases by move closures inside the budgets.

    Returns (seeds, classes, unknown_pairs, states, truncated) where each
    class is (representative, invariant key, member list).  A closure is
    certified when neither budget cut it, and then it is the whole
    class; two classes that share a key are an unknown pair unless one
    of them is certified.  Every state reached must carry its seed's
    invariant values and belong to one closure only; otherwise
    ConsistencyError is raised.
    """
    if max_letters < n_letters:
        raise ValueError("max_letters must cover the enumeration")
    seeds = [key for n in range(n_letters + 1) for key in _enumerate_keys(ctx.alphabet, n, ctx.k)]
    names, values_of = key_reader(ctx.alphabet, ctx.k, ctx.moves, ctx.lifted)
    home, values, certified = {}, {}, {}
    truncated = False
    for seed in seeds:
        if seed in home:
            continue
        home[seed] = seed
        values[seed] = value = values_of(seed)
        queue = deque([seed])
        cut = False
        while queue and not truncated:
            state = queue.popleft()
            cut = cut or _budget_cut(state, ctx.moves, max_letters)
            for child in _children(state, ctx.moves, max_letters):
                owner = home.get(child)
                if owner is None:
                    if values_of(child) != value:
                        raise ConsistencyError(
                            f"move-connected states disagree on invariants: "
                            f"{_form(seed).serialize()!r} vs {_form(child).serialize()!r}")
                    home[child] = seed
                    if len(home) > max_states:
                        truncated = True
                        break
                    queue.append(child)
                elif owner is not seed:
                    raise ConsistencyError(
                        f"the closures of {_form(owner).serialize()!r} and "
                        f"{_form(seed).serialize()!r} meet at {_form(child).serialize()!r}")
        certified[seed] = not (cut or truncated)

    forms = {seed: _form(seed) for seed in seeds}
    class_of = {}  # each member with its text, serialized once
    for seed, form in forms.items():
        class_of.setdefault(home[seed], []).append((form.serialize(), form))
    classes = []
    for root, members in class_of.items():
        members.sort(key=itemgetter(0))
        key = " ".join(f"{name}={text}" for name, text in render_rows(names, values[root]))
        text, first = members[0]
        classes.append((first, key, [form for _text, form in members], certified[root], text))
    classes.sort(key=itemgetter(1, 4))

    unknown_pairs = [(a[0], b[0]) for _key, group in groupby(classes, key=lambda c: c[1])
                     for a, b in combinations(group, 2) if not (a[3] or b[3])]
    return list(forms.values()), [c[:3] for c in classes], unknown_pairs, len(home), truncated
