"""Set up ``liecodim`` for a set of base algebras and print the seconds taken.

Set-up is the import of the package, ``catalog()``, the cohomology spaces
of each base, and the first (lazy) sympy import behind
``_factor_over_rationals``.  Run in a fresh interpreter so the time includes
every import.  It prints the wall seconds and the seconds at the reference
host speed (``hostspeed.py``):

    python3 bench/setup_probe.py r3 r_plus_h3
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from hostspeed import HostClock

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(bases) -> None:
    """Load everything the sweeps over ``bases`` need."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from liecodim.classify import _entry_spaces, catalog
    from liecodim.exactla import _factor_over_rationals

    catalog()
    for base in bases:
        _entry_spaces(base)
    _factor_over_rationals((Fraction(-1), Fraction(0), Fraction(1)))


if __name__ == "__main__":
    with HostClock() as clock:
        set_up(sys.argv[1:])
    print(repr(clock.wall_s), repr(clock.reference_s))
