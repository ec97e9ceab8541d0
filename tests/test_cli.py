"""The command line entry point and the input it reads.

The smoke tests run the module in a subprocess, as the installed
`quartic-torsion` script would.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartic_torsion
from quartic_torsion.ellcurve import Curve
from quartic_torsion.errors import EngineError
from quartic_torsion.numfield import parse_field_spec

SRC = str(Path(quartic_torsion.__file__).resolve().parent.parent)


@pytest.mark.parametrize("parse, spec", [
    (parse_field_spec, "0"),
    (parse_field_spec, "x"),
    (parse_field_spec, ""),
    (parse_field_spec, "1/2,3"),
    (parse_field_spec, "2;1/0;1"),
    (Curve.from_str, "a,0,0,0,0"),
    (Curve.from_str, "1/0,0,0,0,0"),
], ids=lambda v: v if isinstance(v, str) else v.__qualname__)
def test_malformed_spec_raises_engine_error(parse, spec):
    with pytest.raises(EngineError):
        parse(spec)


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "quartic_torsion.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_prints_report_as_json():
    out = _run("0,0,0,-1,0", "-1,2")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["structure"] == [4, 4]
    assert report["field"]["galois_type"] == "Biquadratic"


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
