"""Seeded configs for the CLI's contract: every input gives one of three
results.

``draw(seed, index, exponent)`` writes one config: 1 to 8 of the fifteen
slots, each an expression over ``+ - * / ^``, sin, cos, tan, exp, ln, sqrt,
``t`` and constants (literals and ``[constants]`` entries) of magnitude
10^U(-exponent, exponent); t_end = 10^U(-6, 1), 1 to 4 samples, an optional
rtol and optional Green points.  ``check(text, tmp)`` runs it through
``cli.main(["run", cfg, "--outdir", out])`` in this process and asserts
one of:

- exit 0: one JSON info line on stdout, nothing on stderr, and every file
  that ``[outputs]`` names written.  At the default tolerances every
  Heisenberg row (up to 0.8 t_break after a breakdown, verify's rule)
  agrees with ``oracles.fundamental_matrix`` within ``BOUND`` times
  max(|S|, |d|, 1) of the oracle's row, unless the oracle spends a budget
  of ``ORACLE_ATTEMPTS`` step attempts on one row (``StepBudget``): a flow
  such as a11 = a14 = 5e11 over t = 1.4 takes the oracle's steps down to
  about 1e-13, so such a run is labelled unchecked;
- exit 1: nothing on stdout, one JSON line {"error", "detail", "at"} on
  stderr whose error is a ``QuadflowError`` code, and no file written;

and returns the result's histogram label.  An exception that escapes
``main`` escapes ``check``.

The tier-1 slice (``tests/test_contract_fuzz.py``) draws ``COUNT`` configs
at ``MILD``; run as a script, this module checks the ``WIDE_COUNT`` configs
of the wide slice, whose exponent is drawn per config from U(0, 300), and
prints the histogram of results::

    PYTHONPATH=src python3 tests/contract_fuzz.py
"""

from __future__ import annotations

import collections
import io
import json
import math
import random
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from quadflow import cli, oracles
from quadflow.config import load_config
from quadflow.errors import QuadflowError, StepBudget

SEED = 5359
COUNT = 200            # the tier-1 slice
MILD = 0.5             # its magnitudes: 10^U(-0.5, 0.5), 0.32 to 3.2
WIDE_COUNT = 1000      # the wide slice, draws COUNT onward
WIDE = 300.0           # its largest exponent: magnitudes up to 1e+-300
BOUND = 1e-6           # Heisenberg rows vs the oracle, relative
# oracle step attempts per row, in place of its own budget; the longest
# row of both slices that the oracle finishes takes 88
ORACLE_ATTEMPTS = 1_000

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")
OPERATORS = "+-*/^"
OUTPUTS = {"alphas": "alphas.csv", "heisenberg": "heisenberg.json"}


def _codes(cls=QuadflowError):
    """The error codes of ``cls``'s subclasses, at any depth."""
    return {code for sub in cls.__subclasses__()
            for code in (sub.code, *_codes(sub))}


CODES = _codes()


def draw(seed: int, index: int, exponent: float) -> str:
    """The text of config ``index`` of the slice at ``seed``; its constants
    have magnitudes 10^U(-exponent, exponent)."""
    rng = random.Random(f"{seed}/{index}")
    constants = {}

    def number():
        return repr(rng.choice((-1, 1))
                    * 10 ** rng.uniform(-exponent, exponent))

    def leaf():
        if rng.random() < 0.4:
            return "t"
        if rng.random() < 0.5:
            return number() if rng.random() < 0.5 else f"({number()})"
        name = f"c{rng.randrange(4)}"
        constants.setdefault(name, number())
        return name

    def expression(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        if rng.random() < 0.35:
            return f"{rng.choice(FUNCTIONS)}({expression(depth - 1)})"
        op = rng.choice(OPERATORS)
        return f"({expression(depth - 1)} {op} {expression(depth - 1)})"

    slots = sorted(rng.sample(range(1, 16), rng.randint(1, 8)))
    text = "[hamiltonian]\n" + "".join(
        f"a{k} = {expression(rng.randint(0, 3))}\n" for k in slots)
    if constants:
        text += "\n[constants]\n" + "".join(
            f"{name} = {value}\n" for name, value in sorted(constants.items()))
    t_end = 10 ** rng.uniform(-6, 1)
    text += f"\n[run]\nt_end = {t_end!r}\nsamples = {rng.randint(1, 4)}\n"
    if rng.random() < 0.25:
        text += f"rtol = {10 ** rng.uniform(-12, -4)!r}\n"
    text += "\n[outputs]\n" + "".join(f"{k} = {v}\n"
                                      for k, v in OUTPUTS.items())
    if rng.random() < 0.3:
        points = " ; ".join(",".join(number() for _ in range(4))
                            for _ in range(rng.randint(1, 2)))
        text += f"green = green.csv\n\n[green]\npoints = {points}\n"
        if rng.random() < 0.5:
            times = sorted(t_end * rng.random() for _ in range(2))
            text += f"times = {', '.join(map(repr, times))}\n"
    return text


def check(text: str, tmp: Path) -> str:
    """Run one config in ``tmp``; assert one of the three results and
    return its label: ``exit 0`` (with `` breakdown`` when the run reports
    one, and `` unchecked`` when the oracle ran out of budget) or
    ``exit 1 <error>``."""
    cfg, out = tmp / "case.cfg", tmp / "out"
    cfg.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["run", str(cfg), "--outdir", str(out)])
    if code == 1:
        assert stdout.getvalue() == ""
        (line,) = stderr.getvalue().splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "detail", "at"}, err
        assert err["error"] in CODES, err
        assert not out.exists(), sorted(out.iterdir())
        return f"exit 1 {err['error']}"
    assert code == 0, code
    assert stderr.getvalue() == ""
    (line,) = stdout.getvalue().splitlines()
    info = json.loads(line)
    names = [*OUTPUTS.values(), *(["green.csv"] if "[green]" in text else [])]
    assert info["written"] == [str(out / name) for name in names], info
    assert all((out / name).is_file() for name in names)
    label = "exit 0" + (" breakdown" if "breakdown" in info else "")
    if "rtol" not in text:
        budget, oracles._MAX_ATTEMPTS = oracles._MAX_ATTEMPTS, ORACLE_ATTEMPTS
        try:
            _agrees_with_the_oracle(cfg, out / OUTPUTS["heisenberg"], info)
        except StepBudget:
            label += " unchecked"
        finally:
            oracles._MAX_ATTEMPTS = budget
    return label


def _agrees_with_the_oracle(cfg: Path, heisenberg: Path, info: dict):
    """Every Heisenberg row up to 0.8 t_break agrees with the classical
    fundamental matrix within BOUND times max(|S|, |d|, 1)."""
    schedule = load_config(cfg).schedule
    t_cmp = 0.8 * info["breakdown"]["t_break"] if "breakdown" in info \
        else math.inf
    for row in json.loads(heisenberg.read_text()):
        if row["t"] > t_cmp:
            continue
        S, d = oracles.fundamental_matrix(schedule, row["t"])
        scale = max(np.max(np.abs(S)), np.max(np.abs(d)), 1.0)
        err = max(np.max(np.abs(np.array(row["S"]) - S)),
                  np.max(np.abs(np.array(row["d"]) - d)))
        assert err <= BOUND * scale, (row["t"], err, scale)


def main() -> int:
    """Check the wide slice; print each failing draw, then the histogram."""
    warnings.simplefilter("error", RuntimeWarning)  # as tier-1 runs them
    results = collections.Counter()
    for index in range(COUNT, COUNT + WIDE_COUNT):
        rng = random.Random(f"wide/{SEED}/{index}")
        text = draw(SEED, index, rng.uniform(0, WIDE))
        with tempfile.TemporaryDirectory() as tmp:
            try:
                results[check(text, Path(tmp))] += 1
            except Exception as exc:  # a broken contract: report, go on
                results["contract broken"] += 1
                print(f"draw {index}: {exc!r}\n{text}", file=sys.stderr)
    for label, count in sorted(results.items()):
        print(f"{count:5d}  {label}")
    return 1 if results["contract broken"] else 0


if __name__ == "__main__":
    sys.exit(main())
