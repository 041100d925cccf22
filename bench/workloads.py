"""Seeded inputs, timed operations and correctness gates of the workloads.

Every workload builds a plan from the seed with the public API only,
then runs it in passes.  A pass is the fixed operation list of the plan;
its time excludes the correctness checks, which run between operations.
Operations look library functions up through the `nanowords` modules at
call time, so the wrappers of a traced pass see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import nanowords as nw
import nanowords.cli as nwcli
from recorder import CheckFailed

REFERENCE_PATH = Path(__file__).with_name("reference.json")

PHRASE_INVARIANTS = {"lk": "lk_phrase", "clv": "clv_phrase", "So": "so_phrase",
                     "T": "t_invariant"}


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(seed, *tags):
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _form_text(phrase):
    return nw.canonical_form(phrase).serialize()


def _phrase_invariants(phrase, moves, names):
    return tuple(getattr(nw, PHRASE_INVARIANTS[name])(phrase, moves) for name in names)


# --------------------------------------------------------------- search

# Criterion-5 reductions on the diagonal system: (left, right, max_letters).
REDUCTIONS = (("ABCABC", "BAACCB", 7), ("ABCACB", "BAACBC", 7),
              ("ABACCB", "BACABC", 7), ("ABAB", "", 8))
# Seeded pairs: (system, components, source letters, extra letter budget, pairs).
SEARCH_STRATA = (
    ("curves", 1, 1, 2, 96), ("curves", 1, 2, 2, 96), ("curves", 1, 3, 1, 96),
    ("curves", 2, 1, 2, 96), ("curves", 2, 2, 2, 96), ("curves", 2, 3, 1, 96),
    ("diagonal", 1, 2, 2, 96), ("diagonal", 1, 3, 1, 96),
    ("diagonal", 2, 2, 2, 96), ("diagonal", 2, 3, 1, 96),
    ("links", 1, 1, 2, 96), ("links", 1, 2, 2, 96), ("links", 1, 3, 1, 96),
    ("links", 2, 1, 2, 96), ("links", 2, 2, 1, 96),
)
SEARCH_WALK = 4
SEARCH_MAX_STATES = 500_000


class SearchPair:
    __slots__ = ("moves", "names", "source", "target", "target_form", "max_letters")

    def __init__(self, moves, names, source, target, max_letters):
        self.moves, self.names = moves, names
        self.source, self.target = source, target
        self.target_form = nw.canonical_form(target)
        self.max_letters = max_letters


def _walk(rng, moves, phrase, steps, max_letters):
    for _ in range(steps):
        sites = nw.find_move_sites(phrase, moves, max_letters=max_letters)
        phrase = nw.apply_move(phrase, rng.choice(sites))
    return phrase


class Search:
    name = "search"
    systems = (("curves", 1), ("diagonal", 1), ("links", 1))

    def plan(self, seed, data):
        moves_of = {name: data[(name, 1)].base_moves for name in ("curves", "diagonal", "links")}
        names_of = {name: nw.phrase_invariants_applicable(m) for name, m in moves_of.items()}
        diag = data[("diagonal", 1)]

        def word(letters):
            return nw.Nanophrase(diag.base_alphabet, [tuple(letters)],
                                 {c: "a" for c in letters})

        pairs = [SearchPair(diag.base_moves, names_of["diagonal"], word(left), word(right),
                            max_letters) for left, right, max_letters in REDUCTIONS]
        for system, k, n, extra, count in SEARCH_STRATA:
            rng = _rng(seed, "search", system, k, n, extra)
            moves = moves_of[system]
            pool = list(nw.enumerate_nanophrases(moves.alphabet, n, k))
            made = 0
            while made < count:
                source = rng.choice(pool)
                target = _walk(rng, moves, source, SEARCH_WALK, n + extra)
                if nw.canonical_form(target) == nw.canonical_form(source):
                    continue  # a walk back to the start is not a search
                pairs.append(SearchPair(moves, names_of[system], source, target, n + extra))
                made += 1
        lines = [f"{_form_text(p.source)} -> {_form_text(p.target)} @{p.max_letters}"
                 for p in pairs]
        return pairs, lines

    def run_pass(self, pairs, rec):
        for pair in pairs:
            rec.op(lambda: self._query(pair), lambda result: self._check(pair, result))

    @staticmethod
    def _query(pair):
        # What `nanowords equiv` does: search with a fresh cache, replay the
        # path, and evaluate the guaranteed invariants on both sides.
        verdict = nw.equivalent(pair.source, pair.target, pair.moves, pair.max_letters,
                                SEARCH_MAX_STATES)
        final = None
        if verdict.is_equivalent:
            final = nw.replay_path(nw.canonical_form(pair.source), verdict.path,
                                   pair.moves.alphabet)
        keys = (_phrase_invariants(pair.source, pair.moves, pair.names),
                _phrase_invariants(pair.target, pair.moves, pair.names))
        return verdict, final, keys

    @staticmethod
    def _check(pair, result):
        verdict, final, (keys1, keys2) = result
        require(verdict.is_equivalent, f"verdict {verdict.status}: {verdict.reason}")
        require(final == pair.target_form, "replayed path misses the target")
        require(keys1 == keys2, "equivalent sides differ on an invariant")
        return verdict.explored


# ------------------------------------------------------------- classify

# (system, k, letters n, max_letters); every closure completes well
# inside CLASSIFY_MAX_STATES.  An odd number of configs with no wide cost
# gap in the middle keeps op_p50_ms inside one config's samples.
CLASSIFY_CONFIGS = (
    ("curves", 1, 1, 3), ("curves", 1, 2, 3), ("curves", 1, 3, 3),
    ("links", 1, 1, 2), ("links", 1, 2, 2),
    ("diagonal", 1, 2, 4), ("diagonal", 1, 3, 4), ("diagonal", 2, 2, 3), ("diagonal", 2, 3, 3),
    ("curves", 2, 1, 2), ("curves", 2, 2, 2), ("links", 2, 1, 2),
    ("curves", 3, 1, 2), ("ornaments", 2, 1, 2), ("ornaments", 2, 2, 2),
)
CLASSIFY_REPEATS = 2
CLASSIFY_MAX_STATES = 50_000


def config_key(config):
    system, k, n, max_letters = config
    return f"{system}/k{k}/n{n}/ml{max_letters}"


def set_context(data, system, k):
    d = data[(system, k)]
    if system == "ornaments":
        return nwcli.SetContext(system, d.lifted.alphabet, 1, d.lifted_moves, d.lifted)
    return nwcli.SetContext(system, d.base_alphabet, k, d.base_moves, None)


def partition_digest(result):
    """Digest of the enumeration size and the classes with their keys.

    Unknown pairs and verdict wording are left out on purpose.
    """
    seeds, classes, _unknown, _states, _truncated = result
    lines = [f"enumerated {len(seeds)}"]
    lines += [f"{rep.serialize()}\t{key}\t" + " ".join(m.serialize() for m in members)
              for rep, key, members in classes]
    return digest(lines)


class Classify:
    name = "classify"
    systems = tuple(sorted({(c[0], c[1]) for c in CLASSIFY_CONFIGS}))

    def plan(self, seed, data):
        reference = json.loads(REFERENCE_PATH.read_text())["classify"]
        calls = list(CLASSIFY_CONFIGS) * CLASSIFY_REPEATS
        _rng(seed, "classify").shuffle(calls)
        plan = [(config, set_context(data, config[0], config[1]),
                 reference[config_key(config)]) for config in calls]
        return plan, [config_key(c) for c in calls]

    def run_pass(self, plan, rec):
        for config, ctx, ref in plan:
            _system, _k, n, max_letters = config
            rec.op(lambda: nwcli.classify(ctx, n, max_letters, CLASSIFY_MAX_STATES),
                   lambda result: self._check(ref, result))

    @staticmethod
    def _check(ref, result):
        require(not result[4], "closure truncated by the state budget")
        require(partition_digest(result) == ref["digest"], "partition digest differs")
        return result[3]


# --------------------------------------------------------------- census

# Enumeration blocks (system, letters n, components k) and phrases sampled per block.
CENSUS_BLOCKS = tuple((system, n, k) for system in ("curves", "links")
                      for k in (1, 2, 3) for n in (1, 2, 3)
                      if not (system == "links" and k == 3 and n == 3))
CENSUS_SAMPLE = 60
# Long words: (system, components, letters, count), grown by insertion moves.
CENSUS_LONG = tuple((system, k, length, 6) for system in ("curves", "links")
                    for k in (1, 2, 3) for length in (10, 13, 16, 20))


def block_key(block):
    system, n, k = block
    return f"{system}/n{n}/k{k}"


class CensusWord:
    __slots__ = ("phrase", "moves", "lifted", "names", "long")

    def __init__(self, phrase, moves, lifted, names, long):
        self.phrase, self.moves, self.lifted = phrase, moves, lifted
        self.names, self.long = names, long


def _grow(rng, moves, phrase, length):
    while phrase.n_letters < length:
        kind = "M2ins" if length - phrase.n_letters >= 2 and rng.random() < 0.5 else "M1ins"
        budget = phrase.n_letters + (2 if kind == "M2ins" else 1)
        sites = nw.find_move_sites(phrase, moves, kinds=(kind,), max_letters=budget)
        phrase = nw.apply_move(phrase, rng.choice(sites))
    return phrase


class Census:
    name = "census"
    systems = tuple((system, k) for system in ("curves", "links") for k in (1, 2, 3))

    def plan(self, seed, data):
        counts = json.loads(REFERENCE_PATH.read_text())["census_counts"]
        lines = []
        blocks = []
        for block in CENSUS_BLOCKS:
            system, n, k = block
            d = data[(system, k)]
            expected = counts[block_key(block)]
            chosen = sorted(_rng(seed, "census", *block).sample(
                range(expected), min(CENSUS_SAMPLE, expected)))
            names = nw.phrase_invariants_applicable(d.base_moves)
            blocks.append((block, d, names, expected, set(chosen)))
            lines.append(f"{block_key(block)} {chosen}")
        words = []
        for system, k, length, count in CENSUS_LONG:
            d = data[(system, k)]
            rng = _rng(seed, "census-long", system, k, length)
            names = nw.phrase_invariants_applicable(d.base_moves)
            pool = [p for n in (1, 2, 3)
                    for p in nw.enumerate_nanophrases(d.base_alphabet, n, k)]
            made = 0
            while made < count:
                word = _grow(rng, d.base_moves, rng.choice(pool), length)
                if not nw.find_move_sites(word, d.base_moves):
                    continue  # the later insertions split every matched pattern
                words.append(CensusWord(word, d.base_moves, d.lifted, names, True))
                lines.append(f"{system}/k{k} {_form_text(word)}")
                made += 1
        return (blocks, words), lines

    def run_pass(self, plan, rec):
        blocks, words = plan
        for (system, n, k), d, names, expected, chosen in blocks:
            seen = 0
            for index, phrase in enumerate(nw.enumerate_nanophrases(d.base_alphabet, n, k)):
                seen += 1
                if index in chosen:
                    word = CensusWord(phrase, d.base_moves, d.lifted, names, False)
                    rec.op(lambda: self._census(word), self._check)
            rec.gate(seen == expected, f"{system}/n{n}/k{k}: enumerated {seen} != {expected}")
        for word in words:
            rec.op(lambda: self._census(word), self._check)

    @staticmethod
    def _census(word):
        p, moves, lifted = word.phrase, word.moves, word.lifted
        form = nw.canonical_form(p)
        phrase_values = (nw.lk_phrase(p, moves), nw.clv_phrase(p, moves),
                         nw.so_phrase(p, moves), nw.t_invariant(p, moves))
        flat = nw.phi(p, lifted)
        violation = nw.check_conditions(flat, lifted)
        back_form = nw.canonical_form(nw.psi(flat, lifted))
        word_values = (nw.lk_lifted(flat, lifted), nw.clv_lifted(flat, lifted),
                       nw.so_lifted(flat, lifted))
        guaranteed, moved = None, ()
        if word.long:
            guaranteed = _phrase_invariants(p, moves, word.names)
            moved = tuple(_phrase_invariants(nw.apply_move(p, site), moves, word.names)
                          for site in nw.find_move_sites(p, moves))
        return (word.long, form, phrase_values, violation, back_form, word_values,
                guaranteed, moved)

    @staticmethod
    def _check(result):
        long, form, phrase_values, violation, back_form, word_values, guaranteed, moved = result
        require(violation is None, f"phi(p) violates order condition {violation}")
        require(back_form == form, "psi(phi(p)) is not isomorphic to p")
        require(phrase_values[:3] == word_values, "phrase and word-level invariants differ")
        if long:
            require(len(moved) > 0, "long word has no move site")
            require(all(values == guaranteed for values in moved),
                    "an invariant changed across a move")
        return 1 + len(moved)


WORKLOADS = {w.name: w for w in (Search(), Classify(), Census())}


def load(workload):
    """builtin_data for every (system, k) the workload uses."""
    return {(system, k): nw.builtin_data(system, k) for system, k in workload.systems}


def record_reference():
    """Reference data of the current library: classify partitions, enumeration counts."""
    classify = {}
    data = load(WORKLOADS["classify"])
    for config in CLASSIFY_CONFIGS:
        system, k, n, max_letters = config
        result = nwcli.classify(set_context(data, system, k), n, max_letters,
                                CLASSIFY_MAX_STATES)
        classify[config_key(config)] = {
            "digest": partition_digest(result), "enumerated": len(result[0]),
            "classes": len(result[1]), "states": result[3], "truncated": result[4]}
    data = load(WORKLOADS["census"])
    counts = {block_key((system, n, k)): sum(
        1 for _ in nw.enumerate_nanophrases(data[(system, k)].base_alphabet, n, k))
        for system, n, k in CENSUS_BLOCKS}
    return {"classify": classify, "census_counts": counts}
