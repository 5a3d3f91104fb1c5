"""Seeded mutations of the shipped specs keep the CLI's exit-code contract.

Each shipped command runs in process on mutants of its spec.  A generic
mutant (a line deleted or repeated, a weight raised, a coordinate made odd,
a number zeroed, a sign flipped) exits 0, 1 or 2 and never reports a failed
construction.  The mutants the spec checks reject (a word after a scalar key, a
zero-padded index, a second [bundle] or [structure] section, a map from a
chart to itself) exit 2 naming the mutated line; each is tried at every
site of the spec where it applies.
"""

import contextlib
import io
import pathlib
import random
import re

import pytest

from gradedbundles import cli
from helpers import SHIPPED_COMMANDS

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SEED = 18
MUTANTS_PER_COMMAND = 40


def run_cli(tmp_path, args, lines):
    doc = tmp_path / "mutant.spec"
    doc.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*args, "--spec", str(doc)])
    return code, out.getvalue(), err.getvalue()


def shipped_lines(name):
    return (SPEC_DIR / name).read_text().splitlines()


# ------------------------------------------------------------ generic mutants
def sites(lines, pattern, values_only=False):
    """(line index, match) of every match of ``pattern``, in values only if
    asked."""
    return [(i, m) for i, line in enumerate(lines) for m in re.finditer(pattern, line)
            if not values_only or "=" in line[:m.start()]]


def edit(rng, lines, pattern, repl, values_only=False):
    """``lines`` with one random match of ``pattern`` replaced by ``repl(match)``."""
    hits = sites(lines, pattern, values_only)
    if not hits:
        return lines
    i, m = rng.choice(hits)
    return lines[:i] + [lines[i][:m.start()] + repl(m) + lines[i][m.end():]] + lines[i + 1:]


def delete_line(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i] + lines[i + 1:]


def repeat_line(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i + 1] + lines[i:]


def raise_weight(rng, lines):
    return edit(rng, lines, r"weight (\d+)", lambda m: f"weight {int(m[1]) + 1}")


def make_odd(rng, lines):
    return edit(rng, lines, r"weight \d+$", lambda m: m[0] + " odd")


def zero_number(rng, lines):
    return edit(rng, lines, r"\d+(/\d+)?", lambda m: "0", values_only=True)


def flip_sign(rng, lines):
    return edit(rng, lines, r"[-+]", lambda m: "+" if m[0] == "-" else "-", values_only=True)


GENERIC = [delete_line, repeat_line, raise_weight, make_odd, zero_number, flip_sign]


@pytest.mark.parametrize("name, command", SHIPPED_COMMANDS,
                         ids=[f"{n}-{'-'.join(c)}" for n, c in SHIPPED_COMMANDS])
def test_generic_mutants_keep_the_exit_code_contract(tmp_path, name, command):
    rng = random.Random(f"{SEED} {name} {command}")
    lines = shipped_lines(name)
    for _ in range(MUTANTS_PER_COMMAND):
        mutant = lines
        for _ in range(rng.randint(1, 2)):
            mutant = rng.choice(GENERIC)(rng, mutant)
        code, out, err = run_cli(tmp_path, command, mutant)
        shown = "\n".join(mutant) + "\n--\n" + out + err
        assert code in (0, 1, 2), shown
        assert "construction failed" not in out, shown


# ----------------------------------------------------------- rejected mutants
SCALAR_KEYS = {"arity", "degree", "k", "dim", "base", "fiber"}
INDEXED_KEYS = {"c", "forward", "inverse", "Y", "Z"}


def word_after_scalar_key(lines):
    for i, line in enumerate(lines):
        key, eq, value = line.partition("=")
        if eq and key.split() and key.split()[0] in SCALAR_KEYS:
            yield lines[:i] + [f"{key.strip()} 9 ={value}"] + lines[i + 1:], i + 1


def zero_padded_index(lines):
    for i, line in enumerate(lines):
        key, eq, value = line.partition("=")
        words = key.split()
        if eq and words and words[0] in INDEXED_KEYS:
            for w in range(1, len(words)):
                padded = [*words[:w], "0" + words[w], *words[w + 1:]]
                yield lines[:i] + [f"{' '.join(padded)} ={value}"] + lines[i + 1:], i + 1


def second_bundle_or_structure(lines):
    for line in lines:
        if line == "[bundle]" or line.startswith("[structure "):
            yield lines + [line], len(lines) + 1


def self_map(lines):
    for i, line in enumerate(lines):
        m = re.fullmatch(r"\[map (\S+) -> \S+\]", line)
        if m:
            yield lines[:i] + [f"[map {m[1]} -> {m[1]}]"] + lines[i + 1:], i + 1


REJECTED = [word_after_scalar_key, zero_padded_index, second_bundle_or_structure, self_map]


@pytest.mark.parametrize("mutate", REJECTED, ids=[m.__name__ for m in REJECTED])
def test_rejected_mutants_exit_two_at_their_line(tmp_path, mutate):
    tried = 0
    for name, command in SHIPPED_COMMANDS:
        for mutant, line in mutate(shipped_lines(name)):
            code, out, err = run_cli(tmp_path, command, mutant)
            assert code == 2 and out == "", (name, command, mutant, out + err)
            assert f"at line {line}," in err, (name, command, mutant, err)
            tried += 1
    assert tried
