"""The command line entry point and the input it reads.

The smoke tests run the module in a subprocess, as the installed
`quartic-torsion` script would.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quartic_torsion
from quartic_torsion import cli
from quartic_torsion.ellcurve import Curve
from quartic_torsion.errors import DataFormatError, EngineError
from quartic_torsion.numfield import GaloisType, parse_field_spec

SRC = str(Path(quartic_torsion.__file__).resolve().parent.parent)


# int() reads each side of each of these, but the spec grammar -?[0-9]+(/[0-9]+)? does not
LAX_INTS = ("+3", "1_0", "3/ 4", "-1/-2", "\u0663")


@pytest.mark.parametrize("parse, spec", [
    (parse_field_spec, "0"),
    (parse_field_spec, "x"),
    (parse_field_spec, ""),
    (parse_field_spec, "1/2,3"),
    (parse_field_spec, "2;1/0;1"),
    (parse_field_spec, "0,-3"),
    (parse_field_spec, "-0,2"),
    (parse_field_spec, "-1,0/1"),
    (parse_field_spec, "5/"),
    (Curve.from_str, "a,0,0,0,0"),
    (Curve.from_str, "1/0,0,0,0,0"),
    (Curve.from_str, "1/,0,0,0,0"),
] + [(parse_field_spec, s) for s in LAX_INTS] + [(Curve.from_str, f"0,0,0,{s},0") for s in LAX_INTS],
    ids=lambda v: v if isinstance(v, str) else v.__qualname__)
def test_malformed_spec_raises_engine_error(parse, spec):
    with pytest.raises(EngineError):
        parse(spec)


FUZZ_ALPHABET = "0123456789-/,; .qe+_x"
# tokens that int() reads in a way a spec may not expect, or that sit at an edge
FUZZ_TOKENS = ("0", "-0", "0/1", "", "1/", "/2", "2/0", "-", "+3", "_1", "1_0", " 7", "1e3", "x")


def _fuzz_specs(rng, valid):
    """300 random strings of up to 12 characters over FUZZ_ALPHABET, and 300
    valid specs with one token between separators replaced."""
    def rand_str(n):
        return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(n + 1)))

    specs = [rand_str(12) for _ in range(300)]
    for _ in range(300):
        tokens = re.split(r"([,;])", rng.choice(valid))
        tokens[rng.randrange(0, len(tokens), 2)] = rng.choice(FUZZ_TOKENS) if rng.random() < 0.5 else rand_str(4)
        specs.append("".join(tokens))
    return specs


@pytest.mark.parametrize("parse, valid, argv", [
    (parse_field_spec, ("q", "-1", "-1,2", "5;5;2", "1,1,1,1", "17,21", "13;13;3", "5,0,-5,0"),
     lambda spec: ["0,0,0,-1,0", spec]),
    (Curve.from_str, ("0,0,0,-1,0", "1,1,1,-5,2", "0,1,1,-1,0", "1,0,0,-45,81,label"),
     lambda spec: [spec, "-1"]),
], ids=("field", "curve"))
def test_fuzzed_specs_raise_only_engine_errors(parse, valid, argv, capsys):
    # seeded: the parser either reads a spec or raises an EngineError, and
    # cli.main, given it with a fixed valid other argument, exits 0 or 2
    escaped = []
    for spec in _fuzz_specs(random.Random(f"fuzz:{parse.__qualname__}"), valid):
        try:
            parse(spec)
        except EngineError:
            pass
        except Exception as e:
            escaped.append((spec, repr(e)))
        try:
            status = cli.main(argv(spec))
        except Exception as e:
            status = repr(e)
        if status not in (0, 2):
            escaped.append((spec, status))
    capsys.readouterr()
    assert not escaped


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


def _run(*args):
    return _python("-m", "quartic_torsion.cli", *args)


def test_prints_report_as_json():
    out = _run("0,0,0,-1,0", "-1,2")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["structure"] == [4, 4]
    assert report["field"]["galois_type"] == "Biquadratic"


def test_engine_never_imports_sympy():
    # with the import of sympy made to fail, the engine still answers
    out = _python("-c", "import sys; sys.modules['sympy'] = None; from quartic_torsion import cli; "
                        "sys.exit(cli.main(['0,0,0,-1,0', '-1,2']))")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["structure"] == [4, 4]


# the product of two primes near 10^20 and 3 * 10^20: trial division below
# 10^6 leaves all of it, which is past 10^18
PAST_LIMIT = (10**20 + 39) * (3 * 10**20 + 53)


@pytest.mark.parametrize("spec", (str(PAST_LIMIT), f"1/{PAST_LIMIT},0,0,0"), ids=("quadratic", "denominator"))
def test_spec_past_the_factoring_limit_raises_at_once(spec, capsys):
    t = time.perf_counter()
    with pytest.raises(DataFormatError):
        parse_field_spec(spec)
    assert time.perf_counter() - t < 1
    assert cli.main(["0,0,0,-1,0", spec]) == 2
    assert "too large to factor" in capsys.readouterr().err


@pytest.mark.parametrize("m, n", ((1500007, 1500011), (1500007, 1500019)))
def test_field_with_a_subfield_above_the_factoring_limit_builds(m, n):
    # m*n is above 10^12, the square of the trial division limit: with
    # 1500011 = 613 * 2447 trial division leaves the prime 1500007, and with
    # the prime 1500019 it leaves m*n, two primes above 10^6 read as one factor
    K = parse_field_spec(f"{m},{n}")
    assert K.galois_type is GaloisType.Biquadratic
    assert K.quadratic_subfields() == {m, n, m * n}


def test_bad_spec_exits_2():
    out = _run("0,0,0,-1,0", "1/0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "1/0" in out.stderr


def test_non_galois_field_exits_2():
    out = _run("0,0,0,-1,0", "-2,0,0,0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "non-Galois" in out.stderr


@pytest.mark.parametrize("argv", ([], ["0,0,0,-1,0"], ["0,0,0,-1,0", "-1", "-1"]), ids=len)
def test_wrong_argument_count_prints_usage(argv, capsys):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == cli.USAGE + "\n"
