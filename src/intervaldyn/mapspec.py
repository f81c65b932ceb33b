"""Text map-spec files.

Grammar (one ``key = value`` pair per line, ``#`` comments):

    family = logistic | tent | doubling | lorenz | bimodal | zigzag3
    lam    = 3.2            # family parameters: logistic lam (alias lambda),
                            # tent slope; an omitted one takes its default
    name   = my-map         # optional

or an explicit piecewise map:

    branch   = (0, 1/2) : 0, 2 : increasing
    branch   = (1/2, 1) : -1, 2 : increasing
    # domain : poly coefficients (low degree first) : monotonicity
    # power-composite branches append ': exp=alpha, offset=a, sign=+-1'
    critical = 1/2

Numbers may be written as decimals or fractions; they are taken exactly.
Overlapping or out-of-order branch domains are rejected, and so are keys
the family does not take and parameters whose map leaves [0,1].
"""

from __future__ import annotations

from fractions import Fraction

from .branch import BranchSpec, DECREASING, INCREASING
from .catalog import FAMILIES
from .errors import IntervalDynError, MapSpecError
from .maps import PiecewiseMap


def _number(tok: str, line: int) -> Fraction:
    tok = tok.strip()
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise MapSpecError(f"bad number {tok!r}", line) from None


def _parse_branch(value: str, line: int) -> BranchSpec:
    parts = [p.strip() for p in value.split(":")]
    if len(parts) < 3:
        raise MapSpecError("branch needs 'domain : coeffs : monotonicity'", line)
    dom = parts[0]
    if not (dom.startswith("(") and dom.endswith(")")):
        raise MapSpecError(f"bad domain {dom!r}", line)
    try:
        lo_s, hi_s = dom[1:-1].split(",")
    except ValueError:
        raise MapSpecError(f"bad domain {dom!r}", line) from None
    lo, hi = _number(lo_s, line), _number(hi_s, line)
    coeffs = [_number(t, line) for t in parts[1].split(",") if t.strip()]
    mono = parts[2].lower()
    if mono in ("inc", "increasing"):
        mono = INCREASING
    elif mono in ("dec", "decreasing"):
        mono = DECREASING
    else:
        raise MapSpecError(f"bad monotonicity {parts[2]!r}", line)
    exponent, offset, sign = Fraction(1), Fraction(0), 1
    if len(parts) > 3:
        for item in parts[3].split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise MapSpecError(f"bad branch option {item!r}", line)
            key, val = (s.strip() for s in item.split("=", 1))
            if key == "exp":
                exponent = _number(val, line)
            elif key == "offset":
                offset = _number(val, line)
            elif key == "sign":
                sign = int(val)
            else:
                raise MapSpecError(f"unknown branch option {key!r}", line)
    try:
        return BranchSpec(lo, hi, coeffs, mono, exponent=exponent, offset=offset, sign=sign)
    except Exception as exc:
        raise MapSpecError(f"invalid branch: {exc}", line) from None


def parse_mapspec(text: str, name: str = "") -> PiecewiseMap:
    family = None
    branches: list[tuple[int, BranchSpec]] = []
    critical: list[Fraction] = []
    params: dict[str, tuple[Fraction, int]] = {}  # key -> (value, line)
    given_name = name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise MapSpecError(f"expected 'key = value', got {stripped!r}", lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        key = key.lower()
        if key == "family":
            family = value.lower()
        elif key == "branch":
            branches.append((lineno, _parse_branch(value, lineno)))
        elif key == "critical":
            critical.extend(_number(t, lineno) for t in value.split(",") if t.strip())
        elif key == "name":
            given_name = value
        else:
            params["lam" if key == "lambda" else key] = (_number(value, lineno), lineno)

    if family is not None:
        if branches or critical:
            raise MapSpecError("family specs cannot also declare branches")
        if family not in FAMILIES:
            raise MapSpecError(f"unknown family {family!r}; know {sorted(FAMILIES)}")
        build, defaults = FAMILIES[family]
        for key, (_, lineno) in params.items():
            if key not in defaults:
                raise MapSpecError(
                    f"unknown parameter {key!r} for family {family!r}; know {sorted(defaults)}",
                    lineno,
                )
        kwargs = {**defaults, **{key: value for key, (value, _) in params.items()}}
        try:
            pmap = build(**kwargs)
        except IntervalDynError as exc:
            shown = ", ".join(f"{k} = {v}" for k, v in kwargs.items())
            raise MapSpecError(f"invalid {family} map ({shown}): {exc}") from None
        if given_name:
            # a fresh map: catalog constructors may hand out shared cached objects
            pmap = PiecewiseMap(pmap.branches, pmap.critical, name=given_name)
        return pmap

    if not branches:
        raise MapSpecError("spec declares neither a family nor branches")
    if params:
        key, (_, lineno) = next(iter(params.items()))
        raise MapSpecError(f"unknown key {key!r} in a branch spec", lineno)
    branches.sort(key=lambda lb: lb[1].lo)
    for (l1, b1), (l2, b2) in zip(branches, branches[1:]):
        if b2.lo < b1.hi:
            raise MapSpecError(
                f"branch domains overlap: ({float(b1.lo)},{float(b1.hi)}) and "
                f"({float(b2.lo)},{float(b2.hi)})",
                l2,
            )
    try:
        return PiecewiseMap([b for _, b in branches], critical, name=given_name or "custom")
    except Exception as exc:
        raise MapSpecError(f"invalid map: {exc}") from None


def load_mapspec(path) -> PiecewiseMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mapspec(fh.read(), name="")
