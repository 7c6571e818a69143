"""Benchmark program builders and access to the bundled examples.

Bundled programs live in ``flipc/benchmarks`` as plain source files.  The
scaling suites generate sources parameterized by a size ``n``:

* ``chained-flips``: an initial flip followed by dependent conditional flip
  layers; ``n`` counts two-layer blocks, so n=1 is the bundled
  ``chain_small`` worked example.
* ``diamond``: n composed calls of the diamond routing network.
* ``ladder``: n composed rungs of a two-wire ladder network.
* ``caesar-mini``: shift-cipher frequency analysis over a 4-letter alphabet
  with n observed ciphertext characters and a small encryption-error rate.
"""

from __future__ import annotations

SUITES = ("chained-flips", "diamond", "ladder", "caesar-mini")


def benchmark_names() -> list:
    # Imported here: no CLI command lists or reads the bundled files, and
    # importlib.resources pulls in zipfile, tempfile and more.
    from importlib import resources

    root = resources.files("flipc").joinpath("benchmarks")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".dice"))


def benchmark_text(name: str) -> str:
    from importlib import resources

    return resources.files("flipc").joinpath("benchmarks", name).read_text()


def suite_source(suite: str, n: int) -> str:
    if suite == "chained-flips":
        return chained_flips_source(n)
    if suite == "diamond":
        return diamond_source(n)
    if suite == "ladder":
        return ladder_source(n)
    if suite == "caesar-mini":
        return caesar_source(n)
    raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")


def chained_layers_source(layers: int) -> str:
    """An initial flip plus ``layers`` conditional layers, parameters cycling
    through (0.2, 0.3) and (0.4, 0.5)."""
    lines = ["let x0 = flip 0.1 in"]
    for i in range(1, layers + 1):
        t, e = ((0.2, 0.3), (0.4, 0.5))[(i - 1) % 2]
        lines.append(f"let x{i} = if x{i - 1} then flip {t} else flip {e} in")
    lines.append(f"x{layers}")
    return "\n".join(lines) + "\n"


def chained_flips_source(blocks: int) -> str:
    return chained_layers_source(2 * blocks)


DIAMOND_FUNCTION = """\
fun diamond(s1: Bool): Bool {
  let route = flip 0.5 in
  let s2 = if route then s1 else false in
  let s3 = if route then false else s1 in
  let drop = flip 0.0001 in
  s2 || (s3 && !drop)
}
"""


def diamond_source(n: int) -> str:
    return DIAMOND_FUNCTION + f"iterate(diamond, true, {n})\n"


LADDER_FUNCTION = """\
fun rung(s: (Bool, Bool)): (Bool, Bool) {
  let a = fst s in
  let b = snd s in
  let keep = flip 0.5 in
  let drop = flip 0.001 in
  let o1 = if keep then a else b && !drop in
  let o2 = if keep then b else a && !drop in
  (o1, o2)
}
"""


def ladder_source(n: int) -> str:
    return LADDER_FUNCTION + f"fst iterate(rung, (true, false), {n})\n"


# Letter frequencies for the reduced 4-letter alphabet.
CAESAR_FREQUENCIES = (0.5, 0.25, 0.125, 0.125)
CAESAR_ERROR = 0.0001


def caesar_source(chars: int) -> str:
    """Frequency analysis of a shift cipher at reduced scale.

    Each observed character was produced by drawing a plaintext letter from
    the frequency table, shifting it by the unknown key (mod 4), and, with a
    small error probability, skipping the consistency check entirely.  The
    ciphertext cycles through the alphabet.
    """
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
    for i in range(chars):
        lines.append(f"let obs{i} = sendchar(key, int({alphabet}, {i % alphabet})) in")
    lines.append("key")
    return "\n".join(lines) + "\n"
