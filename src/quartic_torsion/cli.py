"""Command line entry point.

    quartic-torsion CURVE FIELD

CURVE is "a1,a2,a3,a4,a6[,label]" (rationals as "p" or "p/q"); FIELD is a
field spec as `numfield.parse_field_spec` reads it, e.g. "q", "-1", "5;5;2"
or "-1,2".  Prints `TorsionReport.to_json_dict()` as one JSON line and exits
0; a malformed spec, a field outside the engine's scope, or a field spec with
an integer past the limit of `_intpoly.factor_int` (a part of 10^18 or more
left by trial division below 10^6) exits 2 with the reason on stderr.  Both
arguments are positional and may start with "-".
"""

from __future__ import annotations

import json
import sys

from .ellcurve import Curve
from .errors import EngineError
from .numfield import parse_field_spec
from .torsion import torsion_over_field

USAGE = "usage: quartic-torsion CURVE FIELD"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    try:
        report = torsion_over_field(Curve.from_str(args[0]), parse_field_spec(args[1]))
    except EngineError as e:
        print(f"quartic-torsion: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
