"""Batch front end over the library.

Subcommands: validate, canon, invariants, equiv, lift, project,
enumerate, classify.  Inputs use the record format of textio; the
working system comes either from the record's own alphabet sections or
from --builtin {curves|links|ornaments|diagonal}.  A word whose
projections carry subscripts (or --k > 1, or the ornaments builtin)
selects the lifted level.  `equiv` renders one moves.decide verdict.

Exit codes: 0 success, 2 input error, 3 internal inconsistency,
4 verdict required but only a budget-limited Unknown was available.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .classification import SetContext, classify
from .core import (
    Alphabet,
    ConsistencyError,
    MoveSystem,
    NanowordError,
    Nanophrase,
    canonical_form,
    enumerate_nanophrases,
)
from .invariants import invariant_lines
from .lift import (
    BUILTIN_NAMES,
    BuiltinData,
    LiftedAlphabet,
    builtin_data,
    check_conditions,
    diagonal_triples,
    lift_alphabet,
    phi,
    psi,
)
from .moves import EQUIVALENT, NOT_EQUIVALENT, UNKNOWN, decide
from .textio import ParseError, parse_record, render_alphabet_lines, render_record

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_UNKNOWN = 4

_VERDICT_RENDER = {EQUIVALENT: ("Equivalent", EXIT_OK), UNKNOWN: ("Unknown", EXIT_UNKNOWN),
                   NOT_EQUIVALENT: ("NotEquivalent", EXIT_OK)}


@dataclass
class WordContext:
    builtin: str
    system_lines: list  # the record's alpha, tau and S lines; none under --builtin
    lifted: LiftedAlphabet  # None at the phrase level
    moves: MoveSystem
    phrase: Nanophrase


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise NanowordError(f"cannot read {path}: {exc}") from None


def _system(args, record):
    """The BuiltinData of --builtin or of the record's own sections, lifted at --k."""
    if args.builtin:
        if record is not None and record.has_alphabet_sections():
            raise NanowordError("--builtin conflicts with alphabet sections in the input")
        return builtin_data(args.builtin, args.k)
    if record is None or record.alpha is None:
        raise NanowordError("input needs an 'alpha:' line or --builtin")
    base = Alphabet(record.alpha, record.tau)
    q = record.q if record.q is not None else base.symbols
    r = record.r if record.r is not None else base.tau_graph
    s = record.s if record.s is not None else diagonal_triples(base)
    base_moves = MoveSystem(base, q, r, s)
    return BuiltinData(None, base, base_moves, *lift_alphabet(base, base_moves.s, args.k))


def load_word_context(args, path, force_base=False):
    record = parse_record(_read(path))
    if record.components is None:
        raise NanowordError(f"{path}: no 'phrase:' line")
    data = _system(args, record)
    base = data.base_alphabet
    lines = [] if data.name else render_alphabet_lines(base, record.s)
    at_base = not (data.name == "ornaments" or args.k > 1
                   or any(sym not in base for sym in record.proj.values()))
    # lift writes a lifted record, which keeps no Q/R line.
    if (force_base or not at_base) and (record.q is not None or record.r is not None):
        raise NanowordError("custom Q/R lines are not supported at the lifted level")
    if at_base:
        phrase = Nanophrase(base, record.components, record.proj)
        return WordContext(data.name, lines, None, data.base_moves, phrase)
    if force_base:
        raise NanowordError("expected a phrase over the base alphabet")
    phrase = Nanophrase(data.lifted.alphabet, record.components, record.proj)
    return WordContext(data.name, lines, data.lifted, data.lifted_moves, phrase)


def load_set_context(args):
    data = _system(args, parse_record(_read(args.file)) if args.file else None)
    if data.name == "ornaments":
        return SetContext(data.name, data.lifted.alphabet, 1, data.lifted_moves, data.lifted)
    return SetContext(data.name, data.base_alphabet, args.k, data.base_moves, None)


def _emit(args, rows):
    sep = "\t" if args.format == "tsv" else ": "
    for key, value in rows:
        print(f"{key}{sep}{value}")


def cmd_validate(args):
    ctx = load_word_context(args, args.file)
    level = "lifted word" if ctx.lifted is not None else "phrase"
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
    if ctx.lifted is not None:
        violation = check_conditions(ctx.phrase, ctx.lifted)
        rows.append(("conditions", "satisfied" if violation is None else
                     f"violated pair ({violation.letter_a},{violation.letter_b}) "
                     f"condition ({violation.condition})"))
    lines = invariant_lines(ctx.phrase, ctx.moves, ctx.lifted)
    if not lines:
        raise NanowordError("no invariant is guaranteed under this move system "
                            "(R must be the graph of tau)")
    rows.extend(lines)
    _emit(args, rows)
    return EXIT_OK


def cmd_equiv(args):
    ctx1 = load_word_context(args, args.file)
    ctx2 = load_word_context(args, args.file2)
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
    verdict = decide(p1, p2, ctx1.moves, ctx1.lifted, max_letters, max_states)
    label, code = _VERDICT_RENDER[verdict.status]
    last = ("reason", verdict.reason) if verdict.path is None else ("steps", len(verdict.path))
    rows = [("verdict", label), ("inputs", f"{canonical_form(p1)}  vs  {canonical_form(p2)}"),
            ("states", verdict.explored), last]
    if verdict.separator is not None:
        rows.append(("separated-by", verdict.separator))
    _emit(args, rows)
    for index, step in enumerate(verdict.path or (), start=1):
        print(step.describe(index))
    return code


def cmd_lift(args):
    ctx = load_word_context(args, args.file, force_base=True)
    word = phi(ctx.phrase)
    comments = [f"flattened {ctx.phrase.k}-component phrase; reread with --k {ctx.phrase.k}"
                + (f" --builtin {ctx.builtin}" if ctx.builtin else "")]
    sys.stdout.write(render_record(word, ctx.system_lines, comments))
    return EXIT_OK


def cmd_project(args):
    ctx = load_word_context(args, args.file)
    if ctx.lifted is None:
        raise NanowordError("input is not a lifted word (nothing to project)")
    phrase = psi(ctx.phrase, ctx.lifted)
    # The rebuilt phrase lives over the base alphabet, so ornaments input
    # projects onto the curves base.
    base_name = "curves" if ctx.builtin == "ornaments" else ctx.builtin
    comments = [f"reconstructed {ctx.lifted.k}-component phrase"
                + (f"; reread with --builtin {base_name}" if base_name else "")]
    sys.stdout.write(render_record(phrase, ctx.system_lines, comments))
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


def _add_options(sub, name, k_help):
    sub.add_argument("--builtin", choices=BUILTIN_NAMES,
                     help="use a built-in alphabet and move system")
    if name == "lift":
        sub.set_defaults(k=1)  # lifting starts from a base-level phrase
    else:
        sub.add_argument("--k", type=int, default=1, help=k_help)
    if name in ("equiv", "classify"):
        sub.add_argument("--max-letters", type=int, default=None)
        sub.add_argument("--max-states", type=int, default=None)
    if name in ("invariants", "equiv", "enumerate", "classify"):
        sub.add_argument("--format", choices=("report", "tsv"), default="report")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nanowords",
        description="Nanophrase validation, rewriting, invariants, and search.")
    subs = parser.add_subparsers(dest="command", required=True)
    word_k = "subscript order of the lifted alphabet for word-level inputs"
    set_k = "component count for enumeration (subscript order for ornaments)"

    for name, func in (("validate", cmd_validate), ("canon", cmd_canon),
                       ("invariants", cmd_invariants), ("equiv", cmd_equiv),
                       ("lift", cmd_lift), ("project", cmd_project)):
        sub = subs.add_parser(name)
        sub.add_argument("file")
        if name == "equiv":
            sub.add_argument("file2")
        _add_options(sub, name, word_k)
        sub.set_defaults(func=func)

    for name, func in (("enumerate", cmd_enumerate), ("classify", cmd_classify)):
        sub = subs.add_parser(name)
        sub.add_argument("file", nargs="?", default=None,
                         help="record providing alphabet sections (or use --builtin)")
        sub.add_argument("--n", type=int, required=True, help="letter budget")
        _add_options(sub, name, set_k)
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
