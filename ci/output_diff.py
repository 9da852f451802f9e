"""How far two checkouts' outputs are apart, field by field.

``ci/output_digests.py`` says whether a case's bytes changed; this says by
how much.  It runs every case of that script once with each ``src/``
directory and compares stdout, stderr and every output file number by
number::

    python3 ci/output_diff.py ../parent/src src --seeds 3 7 11

Each line reads ``<case> <part>`` and then ``identical``; or the count of
numeric fields that changed, the largest relative distance
|a - b| / max(|a|, |b|), the largest distance in units in the last place
(the count of doubles between the two) and the largest absolute distance
(a field that is rounding noise around 0 has a large relative one); or
``rc <a> -> <b>`` and ``text differs`` where the exit status or anything
but the numbers changed, and ``only in <side>`` for a file one side did not
write.  Numbers are read from the text as written (``%.17g`` round-trips
every double), after each side's temporary directory is replaced by
``<tmp>``.
"""

from __future__ import annotations

import argparse
import math
import re
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from output_digests import cases, outputs  # noqa: E402  (ci/output_digests.py)

_NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     rb"|inf(?:inity)?|nan)", re.IGNORECASE)


def _ordinal(x: float) -> int:
    """Doubles in order: consecutive doubles have consecutive ordinals."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def distance(a: bytes, b: bytes) -> str:
    """One part's verdict: see the module docstring."""
    if a == b:
        return "identical"
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return "text differs"
    changed, rel, ulp, gap = 0, 0.0, 0, 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x == y:
            continue
        x, y = float(x), float(y)
        if x == y:
            continue
        changed += 1
        if not (math.isfinite(x) and math.isfinite(y)):
            rel = ulp = gap = math.inf
            continue
        rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
        ulp = max(ulp, abs(_ordinal(x) - _ordinal(y)))
        gap = max(gap, abs(x - y))
    if not changed:   # the same numbers, written differently
        return "text differs"
    return (f"changed={changed} max_rel={rel:.3g} max_ulp={ulp:.6g} "
            f"max_abs={gap:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    args = ap.parse_args(argv)
    srcs = (args.parent_src.resolve(), args.change_src.resolve())
    for name, write in cases(args.seeds):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            old, new = (outputs(src, write, Path(tmp))
                        for src, tmp in zip(srcs, (a, b)))
        for part in [*old, *(part for part in new if part not in old)]:
            if part not in new or part not in old:
                verdict = f"only in {'parent' if part in old else 'change'}"
            elif part == "rc" and old[part] != new[part]:
                verdict = f"rc {old[part].decode()} -> {new[part].decode()}"
            else:
                verdict = distance(old[part], new[part])
            print(f"{name} {part} {verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
