"""Line-oriented text format for alphabets, homotopy data, and phrases.

One record per file, UTF-8, '#' starts a comment.  Recognized keys:

    alpha: a b              # base alphabet symbols
    tau: a=b                # involution pairs, listed once; rest fixed
    Q: a b                  # optional move gates (defaults: Q = alpha,
    R: a=b b=a              # R = graph of tau, S = diagonal triples)
    S: a a a / b b b
    proj: A=a B=b           # letter projections (lines merge)
    phrase: A B | B A       # '|' separates components; '∅' marks an
                            # explicitly empty component
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import NanowordError

EMPTY_MARK = "∅"


class ParseError(NanowordError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class Record:
    alpha: tuple = None
    tau: dict = field(default_factory=dict)
    q: tuple = None
    r: tuple = None
    s: tuple = None
    proj: dict = field(default_factory=dict)
    components: tuple = None

    def has_alphabet_sections(self):
        return (self.alpha is not None or self.tau or self.q is not None
                or self.r is not None or self.s is not None)


def _parse_pairs(rest, line_no, what):
    pairs = []
    for token in rest.split():
        left, sep, right = token.partition("=")
        if not sep or not left or not right:
            raise ParseError(line_no, f"{what} entries must look like x=y, got {token!r}")
        pairs.append((left, right))
    return pairs


def parse_record(text):
    record = Record()
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip().lower()
        if not sep:
            raise ParseError(line_no, "expected 'key: value'")
        if key in seen and key != "proj":
            raise ParseError(line_no, f"duplicate {key!r} line")
        seen.add(key)
        if key == "alpha":
            record.alpha = tuple(rest.split())
            if not record.alpha:
                raise ParseError(line_no, "alpha line lists no symbols")
        elif key == "tau":
            for x, y in _parse_pairs(rest, line_no, "tau"):
                if record.tau.setdefault(x, y) != y or record.tau.setdefault(y, x) != x:
                    raise ParseError(line_no, f"conflicting tau pair {x}={y}")
        elif key == "q":
            record.q = tuple(rest.split())
        elif key == "r":
            record.r = tuple(_parse_pairs(rest, line_no, "R"))
        elif key == "s":
            triples = []
            for chunk in rest.split("/"):
                tokens = chunk.split()
                if not tokens:
                    continue
                if len(tokens) != 3:
                    raise ParseError(line_no, f"S triples need 3 symbols, got {tokens!r}")
                triples.append(tuple(tokens))
            record.s = tuple(triples)
        elif key == "proj":
            for ltr, sym in _parse_pairs(rest, line_no, "proj"):
                if record.proj.setdefault(ltr, sym) != sym:
                    raise ParseError(line_no, f"conflicting projection for {ltr}")
        elif key == "phrase":
            comps = []
            for chunk in rest.split("|"):
                tokens = chunk.split()
                if tokens == [EMPTY_MARK]:
                    tokens = []
                elif EMPTY_MARK in tokens:
                    raise ParseError(line_no, f"{EMPTY_MARK} cannot mix with letters")
                comps.append(tuple(tokens))
            record.components = tuple(comps)
        else:
            raise ParseError(line_no, f"unknown key {key!r}")
    return record


def render_phrase_line(phrase):
    return " | ".join(" ".join(comp) or EMPTY_MARK for comp in phrase.components)


def render_alphabet_lines(alphabet, s=None):
    lines = [f"alpha: {' '.join(alphabet.symbols)}"]
    pairs = alphabet.tau_pairs()
    if pairs:
        lines.append(f"tau: {' '.join(f'{a}={b}' for a, b in pairs)}")
    if s is not None:
        lines.append(f"S: {' / '.join(' '.join(t) for t in s)}")
    return lines


def render_record(phrase, alphabet_lines=(), comments=()):
    lines = [f"# {c}" for c in comments]
    lines.extend(alphabet_lines)
    if phrase.letters:
        proj = " ".join(f"{ltr}={phrase.proj[ltr]}" for ltr in phrase.letters)
        lines.append(f"proj: {proj}")
    lines.append(f"phrase: {render_phrase_line(phrase)}")
    return "\n".join(lines) + "\n"
