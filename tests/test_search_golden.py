"""Golden outcomes of a fixed set of equivalence searches.

Each query's status, explored-state count, reason and path (every site
and the form it leads to) is compared, line by line, with
tests/data/search_outcomes.txt.  The explored count and the path depend
on the order in which the search reads each state's children, so a
kernel that reorders or drops children fails here even where its
verdicts stay right.  To re-record after an intended change of that
order:

    PYTHONPATH=src python tests/test_search_golden.py > tests/data/search_outcomes.txt
"""

import pathlib
import random
import sys

from nanowords import (
    Nanophrase,
    apply_move,
    builtin_data,
    canonical_form,
    enumerate_nanophrases,
    equivalent,
    find_move_sites,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "search_outcomes.txt"

# The criterion-5 reductions on the diagonal system, (left, right,
# max_letters), then the square word at a budget that cuts its closure.
REDUCTIONS = (("ABCABC", "BAACCB", 7), ("ABCACB", "BAACBC", 7),
              ("ABACCB", "BACABC", 7), ("ABAB", "", 8), ("ABAB", "", 4))
# Walk pairs: (system, components, source letters, extra letters, pairs).
WALKS = (("curves", 1, 2, 2, 6), ("curves", 1, 3, 1, 6), ("curves", 2, 2, 2, 6),
         ("diagonal", 1, 3, 1, 6), ("diagonal", 2, 2, 2, 6),
         ("links", 1, 2, 2, 6), ("links", 2, 2, 1, 6))
MAX_STATES = 500_000
# Every third walk pair also runs at this state budget, to pin Unknown verdicts.
SMALL_STATES = 40


def queries():
    """(label, phrase1, phrase2, moves, max_letters, max_states), in a fixed order."""
    diagonal = builtin_data("diagonal")
    out = []
    for left, right, max_letters in REDUCTIONS:
        p1, p2 = (Nanophrase(diagonal.base_alphabet, [tuple(w)], dict.fromkeys(w, "a"))
                  for w in (left, right))
        out.append((f"diagonal {left or '-'} {right or '-'} @{max_letters}",
                    p1, p2, diagonal.base_moves, max_letters, MAX_STATES))
    for name, k, n, extra, count in WALKS:
        moves = builtin_data(name).base_moves
        rng = random.Random(f"search-golden:{name}:{k}:{n}")
        pool = list(enumerate_nanophrases(moves.alphabet, n, k))
        made = 0
        while made < count:
            source = phrase = rng.choice(pool)
            for _ in range(4):
                phrase = apply_move(phrase, rng.choice(
                    find_move_sites(phrase, moves, max_letters=n + extra)))
            if canonical_form(phrase) == canonical_form(source):
                continue  # a walk back to the start is not a search
            label = (f"{name} k={k} {canonical_form(source)} -> {canonical_form(phrase)}"
                     f" @{n + extra}")
            for states in (MAX_STATES, SMALL_STATES)[:1 + (made % 3 == 0)]:
                out.append((f"{label} states={states}", source, phrase, moves, n + extra,
                            states))
            made += 1
    return out


def outcome_lines():
    for label, p1, p2, moves, max_letters, max_states in queries():
        verdict = equivalent(p1, p2, moves, max_letters, max_states)
        path = " | ".join(f"{step.site!r} -> {step.result}" for step in verdict.path or ())
        yield f"{label}\t{verdict.status}\t{verdict.explored}\t{verdict.reason}\t{path}\n"


def test_search_outcomes_are_unchanged():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    actual = list(outcome_lines())
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


if __name__ == "__main__":
    sys.stdout.writelines(outcome_lines())
