"""Seeded workload programs and the references their answers are checked against.

The sources are written here in the shapes of ``flipc.suites`` rather than
taken from it, so an edit to ``flipc.suites`` or ``flipc.generate`` cannot
change a workload.  References never come from flipc's compiler: chain,
ladder and caesar have closed forms below, and the ``small`` corpus carries
results frozen once from the enumeration oracle (see ``freeze_corpus.py``).

A reference is a dict ``{"accepting": float | None, "posterior": {key: p}}``
whose keys are rendered the way ``flipc infer`` prints values; keys missing
from ``posterior`` have probability 0, and ``accepting`` is None where the
exact value is not a normal double (flipc cannot be held to it there).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

CHAIN_BLOCKS = 256
CHAIN_PROGRAMS = 8
LADDER_RUNGS = 160
LADDER_PROGRAMS = 6
# caesar lengths are stratified over [CAESAR_MIN, CAESAR_MAX).  The accepting
# probability leaves the normal double range at 454 observed characters and
# flipc's posteriors go wrong from 468 on (the known underflow of
# BddManager.wmc), so every workload program stays below that point.  The
# underflow is measured apart, on the CAESAR_PROBES lengths past it.
CAESAR_MIN = 260
CAESAR_MAX = 452
CAESAR_PROGRAMS = 9  # odd, so the median lies inside one program's samples
CAESAR_JITTER = 4
CAESAR_TILT = 2
CAESAR_PROBES = (480, 520)
# small draws three of every four neighbouring corpus programs, except the
# slowest SMALL_KEPT, which set the tail latency and run for every seed.
SMALL_STRATUM = 4
SMALL_DRAW = 3
SMALL_KEPT = 16

CAESAR_FREQUENCIES = (0.5, 0.25, 0.125, 0.125)
CAESAR_ERROR = 0.0001


@dataclass
class Program:
    """One input of a workload: source text (or a BIF network and query
    variable to translate first), the compilation mode, and the reference."""

    name: str
    source: Optional[str]
    reference: dict
    mode: str = "modular"
    bif: Optional[tuple] = None  # (network text, query variable)


def _param(rng: random.Random) -> float:
    # Six decimals, strictly inside (0, 1); printed and parsed exactly.
    return rng.randint(1, 999_999) / 1e6


def _fmt(p: float) -> str:
    return f"{p:.6f}"


def _bool_posterior(p_true: float) -> dict:
    return {"accepting": 1.0, "posterior": {"true": p_true, "false": 1.0 - p_true}}


# ---------------------------------------------------------------------------
# chain: an initial flip and 2 * blocks dependent conditional flips


def chain_program(rng: random.Random, blocks: int) -> Program:
    layers = 2 * blocks
    first = _param(rng)
    pairs = [(_param(rng), _param(rng)) for _ in range(layers)]
    lines = [f"let x0 = flip {_fmt(first)} in"]
    for i, (t, e) in enumerate(pairs, start=1):
        lines.append(f"let x{i} = if x{i - 1} then flip {_fmt(t)} else flip {_fmt(e)} in")
    lines.append(f"x{layers}")
    return Program(f"chain[{blocks}]", "\n".join(lines) + "\n", chain_reference(first, pairs))


def chain_reference(first: float, pairs: list) -> dict:
    """Two-state recurrence: P(x_i) = P(x_{i-1}) t_i + (1 - P(x_{i-1})) e_i."""
    p = first
    for t, e in pairs:
        p = p * t + (1.0 - p) * e
    return _bool_posterior(p)


# ---------------------------------------------------------------------------
# ladder: a two-wire rung function iterated, modular mode


def ladder_program(rng: random.Random, rungs: int) -> Program:
    keep = _param(rng)
    drop = rng.randint(1, 20_000) / 1e6
    start = rng.choice(((True, False), (False, True)))
    side = rng.choice(("fst", "snd"))
    init = "(true, false)" if start == (True, False) else "(false, true)"
    source = (
        "fun rung(s: (Bool, Bool)): (Bool, Bool) {\n"
        "  let a = fst s in\n"
        "  let b = snd s in\n"
        f"  let keep = flip {_fmt(keep)} in\n"
        f"  let drop = flip {_fmt(drop)} in\n"
        "  let o1 = if keep then a else b && !drop in\n"
        "  let o2 = if keep then b else a && !drop in\n"
        "  (o1, o2)\n"
        "}\n"
        f"{side} iterate(rung, {init}, {rungs})\n"
    )
    reference = ladder_reference(keep, drop, start, side, rungs)
    return Program(f"ladder[{rungs}]", source, reference)


def ladder_reference(keep: float, drop: float, start: tuple, side: str, rungs: int) -> dict:
    """Four-state DP over the wire pair: a rung keeps the pair with
    probability keep, otherwise swaps it, or clears both wires on a drop."""
    states = [(a, b) for a in (False, True) for b in (False, True)]
    dist = {s: 0.0 for s in states}
    dist[start] = 1.0
    swap = (1.0 - keep) * (1.0 - drop)
    clear = (1.0 - keep) * drop
    for _ in range(rungs):
        nxt = {s: 0.0 for s in states}
        for (a, b), p in dist.items():
            nxt[(a, b)] += p * keep
            nxt[(b, a)] += p * swap
            nxt[(False, False)] += p * clear
        dist = nxt
    index = 0 if side == "fst" else 1
    return _bool_posterior(sum(p for s, p in dist.items() if s[index]))


# ---------------------------------------------------------------------------
# caesar: shift-cipher frequency analysis over a 4-letter alphabet


def caesar_source(ciphertext: list) -> str:
    alphabet = len(CAESAR_FREQUENCIES)
    freqs = ", ".join(repr(p) for p in CAESAR_FREQUENCIES)
    uniform = ", ".join(repr(1.0 / alphabet) for _ in range(alphabet))
    lines = [
        f"fun sendchar(key: int({alphabet}), seen: int({alphabet})): Bool {{",
        f"  let letter = discrete({freqs}) in",
        "  let encrypted = letter + key in",
        f"  let fail = flip {CAESAR_ERROR!r} in",
        "  if fail then true else observe encrypted == seen",
        "}",
        f"let key = discrete({uniform}) in",
    ]
    for i, c in enumerate(ciphertext):
        lines.append(f"let obs{i} = sendchar(key, int({alphabet}, {c})) in")
    lines.append("key")
    return "\n".join(lines) + "\n"


def caesar_ciphertext(rng: random.Random, length: int) -> list:
    """A seeded shuffle and rotation of fixed letter counts: near uniform,
    with CAESAR_TILT letters moved from the last letter to the first, so the
    posterior is not uniform.  The accepting probability then depends on the
    length alone, and so does the point where it underflows."""
    alphabet = len(CAESAR_FREQUENCIES)
    counts = [length // alphabet + (j < length % alphabet) for j in range(alphabet)]
    tilt = min(CAESAR_TILT, length // alphabet)
    counts[0] += tilt
    counts[-1] -= tilt
    shift = rng.randrange(alphabet)
    text = [(j + shift) % alphabet for j, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(text)
    return text


def caesar_program(rng: random.Random, length: int) -> Program:
    ciphertext = caesar_ciphertext(rng, length)
    return Program(f"caesar[{length}]", caesar_source(ciphertext), caesar_reference(ciphertext))


def caesar_reference(ciphertext: list) -> dict:
    """Bayes over the keys in log space: a character is accepted when the
    check is skipped or the shifted letter matches, so
    P(seen | key) = err + (1 - err) * freq[(seen - key) mod 4]."""
    alphabet = len(CAESAR_FREQUENCIES)
    logs = []
    for key in range(alphabet):
        total = math.log(1.0 / alphabet)
        for seen in ciphertext:
            freq = CAESAR_FREQUENCIES[(seen - key) % alphabet]
            total += math.log(CAESAR_ERROR + (1.0 - CAESAR_ERROR) * freq)
        logs.append(total)
    top = max(logs)
    log_accepting = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    posterior = {str(k): math.exp(x - log_accepting) for k, x in enumerate(logs)}
    normal = log_accepting >= math.log(sys.float_info.min)
    return {"accepting": math.exp(log_accepting) if normal else None, "posterior": posterior}


def caesar_lengths(rng: random.Random, count: int = CAESAR_PROGRAMS) -> list:
    """One length near the start of each stratum of [CAESAR_MIN, CAESAR_MAX),
    so every seed covers the range evenly."""
    width = (CAESAR_MAX - CAESAR_MIN) // count
    return [CAESAR_MIN + i * width + rng.randrange(CAESAR_JITTER) for i in range(count)]


# ---------------------------------------------------------------------------
# small: frozen random programs, bundled examples and a translated network


def load_corpus() -> dict:
    with open(CORPUS, encoding="utf-8") as handle:
        return json.load(handle)


def small_programs(rng: random.Random, corpus: dict) -> list:
    """SMALL_DRAW random programs per stratum of SMALL_STRATUM neighbours in
    the corpus (sorted by time to posterior when frozen) and the slowest
    SMALL_KEPT, then every bundled example and every query
    variable of the network; each runs in both modes."""
    randoms = corpus["random"]
    drawn = []
    for start in range(0, len(randoms) - SMALL_KEPT, SMALL_STRATUM):
        drawn += rng.sample(randoms[start : start + SMALL_STRATUM], SMALL_DRAW)
    drawn += randoms[len(randoms) - SMALL_KEPT :]
    items = [Program(p["name"], p["source"], p["reference"]) for p in drawn]
    items += [Program(p["name"], p["source"], p["reference"]) for p in corpus["examples"]]
    network = corpus["network"]
    for query, reference in network["queries"].items():
        items.append(Program(f"{network['name']}:{query}", None, reference, bif=(network["text"], query)))
    programs = []
    for item in items:
        for mode in ("modular", "inline"):
            programs.append(Program(item.name, item.source, item.reference, mode, item.bif))
    return programs


WORKLOADS = ("chain", "ladder", "caesar", "small")


def build(workload: str, seed: int) -> list:
    """The workload's distinct programs, in the order a run passes through
    them; the same seed gives the same programs.  A pass takes a few seconds,
    so a run makes several whole passes."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "chain":
        return [chain_program(rng, CHAIN_BLOCKS) for _ in range(CHAIN_PROGRAMS)]
    if workload == "ladder":
        return [ladder_program(rng, LADDER_RUNGS) for _ in range(LADDER_PROGRAMS)]
    if workload == "caesar":
        return [caesar_program(rng, n) for n in caesar_lengths(rng)]
    if workload == "small":
        return small_programs(rng, load_corpus())
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def probes(workload: str, seed: int) -> list:
    """Programs past a known defect of flipc, run apart from the workload in
    a traced run: caesar at CAESAR_PROBES lengths, where the accepting
    probability is subnormal and ``BddManager.wmc`` underflows."""
    if workload != "caesar":
        return []
    rng = random.Random(f"{workload}-probe/{seed}")
    return [caesar_program(rng, n) for n in CAESAR_PROBES]


TOLERANCE = 1e-9


def mismatch(result, reference: dict) -> Optional[str]:
    """Why ``result`` (an ``InferenceResult``) disagrees with ``reference``,
    or None when every posterior is within TOLERANCE and the accepting
    probability within TOLERANCE relative (where the reference has one)."""
    expected = reference["posterior"]
    seen = set()
    for key, p in result.entries:
        seen.add(key)
        if not abs(p - expected.get(key, 0.0)) <= TOLERANCE:
            return f"posterior of {key}: {p!r}, expected {expected.get(key, 0.0)!r}"
    for key, p in expected.items():
        if key not in seen and p > TOLERANCE:
            return f"value {key} missing, expected posterior {p!r}"
    accepting = reference["accepting"]
    if accepting is not None and not abs(result.accepting - accepting) <= TOLERANCE * accepting:
        return f"accepting {result.accepting!r}, expected {accepting!r}"
    return None
