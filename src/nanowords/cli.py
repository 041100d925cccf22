"""Batch front end over the library.

Subcommands: validate, canon, invariants, equiv, lift, project,
enumerate, classify.  Inputs use the record format of textio; the
working system comes either from the record's own alphabet sections or
from --builtin {curves|links|ornaments|diagonal}.  A word whose
projections carry subscripts (or --k > 1, or the ornaments builtin)
selects the lifted level.

Exit codes: 0 success, 2 input error, 3 internal inconsistency,
4 verdict required but only a budget-limited Unknown was available.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import dataclass

from . import invariants as inv
from .core import (
    Alphabet,
    AlphabetMismatch,
    ConsistencyError,
    MoveSystem,
    NanowordError,
    Nanophrase,
    canonical_form,
    enumerate_nanophrases,
)
from .lift import (
    BUILTIN_NAMES,
    LiftedAlphabet,
    builtin_data,
    check_conditions,
    diagonal_triples,
    lift_alphabet,
    phi,
    psi,
)
from .moves import NeighborCache, equivalent, replay_path
from .textio import ParseError, parse_record, render_alphabet_lines, render_record

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_UNKNOWN = 4


@dataclass
class WordContext:
    builtin: str
    base: Alphabet
    base_moves: MoveSystem
    lifted: LiftedAlphabet
    moves: MoveSystem
    phrase: Nanophrase

    @property
    def is_lifted(self):
        return self.lifted is not None


@dataclass
class SetContext:
    builtin: str
    alphabet: Alphabet
    k: int
    moves: MoveSystem
    lifted: LiftedAlphabet


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise NanowordError(f"cannot read {path}: {exc}") from None


def _base_system(args, record):
    """The base alphabet and move system from --builtin or the record."""
    builtin = getattr(args, "builtin", None)
    k = args.k
    if builtin:
        if record is not None and record.has_alphabet_sections():
            raise NanowordError("--builtin conflicts with alphabet sections in the input")
        data = builtin_data(builtin, k)
        return builtin, data
    if record is None or record.alpha is None:
        raise NanowordError("input needs an 'alpha:' line or --builtin")
    base = Alphabet(record.alpha, record.tau)
    q = record.q if record.q is not None else base.symbols
    r = record.r if record.r is not None else [(x, base.tau(x)) for x in base.symbols]
    s = record.s if record.s is not None else diagonal_triples(base)
    base_moves = MoveSystem(base, q, r, s)
    return None, _ExplicitData(base, base_moves, record, k)


@dataclass
class _ExplicitData:
    base_alphabet: Alphabet
    base_moves: MoveSystem
    record: object
    k: int

    def lifted_pair(self):
        if self.record.q is not None or self.record.r is not None:
            raise NanowordError("custom Q/R lines are not supported at the lifted level")
        return lift_alphabet(self.base_alphabet, self.base_moves.s, self.k)


def _lifted_pair(builtin, data):
    if builtin:
        return data.lifted, data.lifted_moves
    return data.lifted_pair()


def load_word_context(args, path, force_base=False):
    record = parse_record(_read(path))
    if record.components is None:
        raise NanowordError(f"{path}: no 'phrase:' line")
    builtin, data = _base_system(args, record)
    base = data.base_alphabet
    lifted_level = (builtin == "ornaments" or args.k > 1
                    or any(sym not in base for sym in record.proj.values()))
    if force_base and lifted_level:
        raise NanowordError("expected a phrase over the base alphabet")
    if lifted_level:
        lifted, moves = _lifted_pair(builtin, data)
        phrase = Nanophrase(lifted.alphabet, record.components, record.proj)
        return WordContext(builtin, base, data.base_moves, lifted, moves, phrase)
    phrase = Nanophrase(base, record.components, record.proj)
    return WordContext(builtin, base, data.base_moves, None, data.base_moves, phrase)


def load_set_context(args):
    record = parse_record(_read(args.file)) if getattr(args, "file", None) else None
    builtin, data = _base_system(args, record)
    if builtin == "ornaments":
        lifted, moves = _lifted_pair(builtin, data)
        return SetContext(builtin, lifted.alphabet, 1, moves, lifted)
    return SetContext(builtin, data.base_alphabet, args.k, data.base_moves, None)


def _render_lk(value):
    return "(" + ",".join(e.render() for e in value) + ")"


def _render_clv(value):
    return "(" + ",".join(str(b) for b in value) + ")"


def _render_t(blocks):
    return "; ".join(f"{j}: {block.render()}" for j, block in enumerate(blocks, start=1))


def _invariant_lines(phrase, moves, lifted):
    """(name, rendered value) for every invariant the system guarantees.

    `lifted` selects the word level over that lifted alphabet; None
    selects the phrase level.
    """
    if lifted is not None:
        names = inv.lifted_invariants_applicable(moves, lifted)
        table = {
            "lk": lambda: _render_lk(inv.lk_lifted(phrase, lifted)),
            "clv": lambda: _render_clv(inv.clv_lifted(phrase, lifted)),
            "So": lambda: inv.so_lifted(phrase, lifted).render(),
        }
    else:
        names = inv.phrase_invariants_applicable(moves)
        table = {
            "lk": lambda: _render_lk(inv.lk_phrase(phrase, moves)),
            "clv": lambda: _render_clv(inv.clv_phrase(phrase, moves)),
            "So": lambda: inv.so_phrase(phrase, moves).render(),
            "T": lambda: _render_t(inv.t_invariant(phrase, moves)),
        }
    return [(name, table[name]()) for name in names]


def _emit(args, rows):
    sep = "\t" if args.format == "tsv" else ": "
    for key, value in rows:
        print(f"{key}{sep}{value}")


def cmd_validate(args):
    ctx = load_word_context(args, args.file)
    level = "lifted word" if ctx.is_lifted else "phrase"
    print(f"valid: {level}, components={ctx.phrase.k}, letters={ctx.phrase.n_letters}")
    return EXIT_OK


def cmd_canon(args):
    ctx = load_word_context(args, args.file)
    print(canonical_form(ctx.phrase).serialize())
    return EXIT_OK


def cmd_invariants(args):
    ctx = load_word_context(args, args.file)
    rows = [("canonical", canonical_form(ctx.phrase).serialize()),
            ("components", ctx.phrase.k),
            ("letters", ctx.phrase.n_letters)]
    if ctx.is_lifted:
        if ctx.phrase.k != 1:
            raise NanowordError("lifted invariants need a one-component word")
        violation = check_conditions(ctx.phrase, ctx.lifted)
        rows.append(("conditions", "satisfied" if violation is None else
                     f"violated pair ({violation.letter_a},{violation.letter_b}) "
                     f"condition ({violation.condition})"))
    lines = _invariant_lines(ctx.phrase, ctx.moves, ctx.lifted)
    if not lines:
        raise NanowordError("no invariant is guaranteed under this move system "
                            "(R must be the graph of tau)")
    rows.extend(lines)
    _emit(args, rows)
    return EXIT_OK


def cmd_equiv(args):
    ctx1 = load_word_context(args, args.file)
    ctx2 = load_word_context(args, args.file2)
    if ctx1.phrase.alphabet != ctx2.phrase.alphabet:
        raise AlphabetMismatch("the two inputs use different alphabets")
    if ctx1.moves != ctx2.moves:
        raise NanowordError("the two inputs carry different move systems")
    p1, p2 = ctx1.phrase, ctx2.phrase
    needed = max(p1.n_letters, p2.n_letters)
    max_letters = needed + 2 if args.max_letters is None else args.max_letters
    max_states = 100_000 if args.max_states is None else args.max_states
    if max_letters < needed:
        raise NanowordError(f"--max-letters must be at least {needed}")
    if max_states < 1:
        raise NanowordError("--max-states must be positive")
    verdict = equivalent(p1, p2, ctx1.moves, max_letters, max_states)
    keys1 = _invariant_lines(p1, ctx1.moves, ctx1.lifted)
    keys2 = _invariant_lines(p2, ctx2.moves, ctx2.lifted)
    separator = next((n1 for (n1, v1), (_n2, v2) in zip(keys1, keys2) if v1 != v2), None)

    rows = [("inputs", f"{canonical_form(p1)}  vs  {canonical_form(p2)}"),
            ("states", verdict.explored)]
    if verdict.is_equivalent:
        if separator is not None:
            raise ConsistencyError(
                f"search found an equivalence but invariant {separator} differs")
        final = replay_path(canonical_form(p1), verdict.path, p1.alphabet)
        if final != canonical_form(p2):
            raise ConsistencyError("replayed path does not reach the target")
        rows.insert(0, ("verdict", "Equivalent"))
        rows.append(("steps", len(verdict.path)))
        _emit(args, rows)
        for index, step in enumerate(verdict.path, start=1):
            print(step.describe(index))
        return EXIT_OK
    if verdict.status == "not_equivalent":
        rows.insert(0, ("verdict", "NotEquivalent"))
        rows.append(("reason", verdict.reason))
        if separator is not None:
            rows.append(("separated-by", separator))
        _emit(args, rows)
        return EXIT_OK
    if separator is not None:
        rows.insert(0, ("verdict", "NotEquivalent"))
        rows.append(("reason", f"invariant {separator} differs; search inconclusive "
                               f"({verdict.reason})"))
        rows.append(("separated-by", separator))
        _emit(args, rows)
        return EXIT_OK
    rows.insert(0, ("verdict", "Unknown"))
    rows.append(("reason", verdict.reason))
    _emit(args, rows)
    return EXIT_UNKNOWN


def cmd_lift(args):
    args.k = 1  # lifting starts from a base-level phrase
    ctx = load_word_context(args, args.file, force_base=True)
    lifted = LiftedAlphabet(ctx.base, ctx.phrase.k)
    word = phi(ctx.phrase, lifted)
    comments = [f"flattened {ctx.phrase.k}-component phrase; reread with --k {ctx.phrase.k}"
                + (f" --builtin {ctx.builtin}" if ctx.builtin else "")]
    alphabet_lines = () if ctx.builtin else render_alphabet_lines(ctx.base)
    sys.stdout.write(render_record(word, alphabet_lines, comments))
    return EXIT_OK


def cmd_project(args):
    ctx = load_word_context(args, args.file)
    if not ctx.is_lifted:
        raise NanowordError("input is not a lifted word (nothing to project)")
    if ctx.phrase.k != 1:
        raise NanowordError("projection needs a one-component word")
    phrase = psi(ctx.phrase, ctx.lifted)
    # The rebuilt phrase lives over the base alphabet, so ornaments input
    # projects onto the curves base.
    base_name = "curves" if ctx.builtin == "ornaments" else ctx.builtin
    comments = [f"reconstructed {ctx.lifted.k}-component phrase"
                + (f"; reread with --builtin {base_name}" if base_name else "")]
    alphabet_lines = () if ctx.builtin else render_alphabet_lines(ctx.base)
    sys.stdout.write(render_record(phrase, alphabet_lines, comments))
    return EXIT_OK


def cmd_enumerate(args):
    ctx = load_set_context(args)
    count = 0
    for phrase in enumerate_nanophrases(ctx.alphabet, args.n, ctx.k):
        count += 1
        form = canonical_form(phrase).serialize()
        print(f"{count}\t{form}" if args.format == "tsv" else form)
    if args.format != "tsv":
        print(f"total: {count}")
    return EXIT_OK


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
            # Deterministic root: keep the lexicographically smaller form.
            if rb.serialize() < ra.serialize():
                ra, rb = rb, ra
            self.parent[rb] = ra


def _set_invariant_key(ctx, form):
    lines = _invariant_lines(form.to_phrase(ctx.alphabet), ctx.moves, ctx.lifted)
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
    for _root, members in sorted(by_root.items(), key=lambda kv: kv[0].serialize()):
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
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    unknown_pairs.append((reps[i], reps[j]))
    return seeds, classes, unknown_pairs, len(visited), truncated


def cmd_classify(args):
    ctx = load_set_context(args)
    max_letters = args.n + 2 if args.max_letters is None else args.max_letters
    max_states = 50_000 if args.max_states is None else args.max_states
    if max_letters < args.n or max_states < 1:
        raise NanowordError("budgets must be positive and cover the enumeration")
    seeds, classes, unknown_pairs, states, truncated = classify(
        ctx, args.n, max_letters, max_states)
    tsv = args.format == "tsv"
    meta = [("enumerated", len(seeds)), ("states", states),
            ("search", "truncated" if truncated else "complete"),
            ("classes", len(classes))]
    if tsv:
        for key, value in meta:
            print(f"meta\t{key}\t{value}")
        for idx, (rep, key, members) in enumerate(classes, start=1):
            print(f"class\t{idx}\t{len(members)}\t{rep}\t{key}")
            for member in members:
                print(f"member\t{idx}\t{member}")
        for a, b in unknown_pairs:
            print(f"unknown\t{a}\t{b}")
    else:
        for key, value in meta:
            print(f"{key}: {value}")
        for idx, (rep, key, members) in enumerate(classes, start=1):
            print(f"class {idx} [size {len(members)}] {key}")
            print(f"  rep: {rep}")
            for member in members:
                print(f"  member: {member}")
        if unknown_pairs:
            for a, b in unknown_pairs:
                print(f"unknown: {a}  vs  {b}")
        else:
            print("unknown pairs: none")
        print("consistency: ok")
    return EXIT_OK


def _add_common(sub, k_help):
    sub.add_argument("--builtin", choices=BUILTIN_NAMES,
                     help="use a built-in alphabet and move system")
    sub.add_argument("--k", type=int, default=1, help=k_help)
    sub.add_argument("--format", choices=("report", "tsv"), default="report")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nanowords",
        description="Nanophrase validation, rewriting, invariants, and search.")
    subs = parser.add_subparsers(dest="command", required=True)
    word_k = "subscript order of the lifted alphabet for word-level inputs"
    set_k = "component count for enumeration (subscript order for ornaments)"

    for name, func, extra in (
            ("validate", cmd_validate, 0), ("canon", cmd_canon, 0),
            ("invariants", cmd_invariants, 0), ("equiv", cmd_equiv, 1),
            ("lift", cmd_lift, 0), ("project", cmd_project, 0)):
        sub = subs.add_parser(name)
        sub.add_argument("file")
        if extra:
            sub.add_argument("file2")
        if name == "equiv":
            sub.add_argument("--max-letters", type=int, default=None)
            sub.add_argument("--max-states", type=int, default=None)
        _add_common(sub, word_k)
        sub.set_defaults(func=func)

    for name, func in (("enumerate", cmd_enumerate), ("classify", cmd_classify)):
        sub = subs.add_parser(name)
        sub.add_argument("file", nargs="?", default=None,
                         help="record providing alphabet sections (or use --builtin)")
        sub.add_argument("--n", type=int, required=True, help="letter budget")
        if name == "classify":
            sub.add_argument("--max-letters", type=int, default=None)
            sub.add_argument("--max-states", type=int, default=None)
        _add_common(sub, set_k)
        sub.set_defaults(func=func)
    return parser


def _check_counts(args):
    if args.k < 1:
        raise NanowordError("--k must be at least 1")
    if getattr(args, "n", 0) < 0:
        raise NanowordError("--n must not be negative")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ParseError, NanowordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
