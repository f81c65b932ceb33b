"""Observable specs for Birkhoff statistics.

Observables are declared, not passed as callbacks, so downstream code can
bound them on intervals exactly (envelope certification) and evaluate them
on orbits in bulk.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import dyadic
from .branch import as_fraction, poly_derive, poly_eval_float, poly_eval_fraction


class Observable:
    """Polynomial or piecewise-linear function on [0,1]."""

    def __init__(self, kind, data, name=""):
        self.kind = kind
        self.name = name or kind
        if kind == "poly":
            self.coeffs = tuple(as_fraction(c) for c in data)
            self.fcoeffs = tuple(float(c) for c in self.coeffs)
            self._fd = tuple(float(c) for c in poly_derive(self.coeffs))
            self._scaled = None
            self._vertex = None  # (v, phi(v)) for the vertex v of a quadratic
            if len(self.coeffs) <= 3:
                # phi = sum N_k x^k / D over the common denominator D
                den = math.lcm(*(c.denominator for c in self.coeffs))
                self._scaled = (tuple(int(c * den) for c in self.coeffs), den)
                if len(self.coeffs) == 3 and self.coeffs[2] != 0:
                    v = -self.coeffs[1] / (2 * self.coeffs[2])
                    self._vertex = (v, self.value_exact(v))
        elif kind == "pwl":
            xs, ys = data
            if len(xs) != len(ys):
                raise ValueError(f"{len(xs)} piecewise-linear nodes but {len(ys)} values")
            if list(xs) != sorted(xs) or xs[0] != 0 or xs[-1] != 1:
                raise ValueError("piecewise-linear nodes must increase from 0 to 1")
            self.xs = tuple(as_fraction(x) for x in xs)
            self.ys = tuple(as_fraction(y) for y in ys)
            self.fxs = np.asarray([float(x) for x in xs])
            self.fys = np.asarray([float(y) for y in ys])
        else:
            raise ValueError(f"unknown observable kind {kind!r}")

    @classmethod
    def poly(cls, coeffs, name="") -> "Observable":
        return cls("poly", coeffs, name)

    @classmethod
    def identity(cls) -> "Observable":
        return cls("poly", (0, 1), "x")

    @classmethod
    def constant(cls, kappa) -> "Observable":
        return cls("poly", (kappa, 0), f"const[{float(Fraction(kappa)):g}]")

    @classmethod
    def piecewise_linear(cls, xs, ys, name="") -> "Observable":
        return cls("pwl", (xs, ys), name)

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        if self.kind == "poly":
            if isinstance(x, np.ndarray):
                acc = np.zeros_like(x)
                for c in reversed(self.fcoeffs):
                    acc = acc * x + c
                return acc
            return poly_eval_float(self.fcoeffs, x)
        return np.interp(x, self.fxs, self.fys)

    def value_exact(self, x) -> Fraction:
        x = as_fraction(x)
        if self.kind == "poly":
            return poly_eval_fraction(self.coeffs, x)
        for (x0, y0), (x1, y1) in zip(zip(self.xs, self.ys), zip(self.xs[1:], self.ys[1:])):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise ValueError(f"{float(x)} outside [0,1]")

    # -- bounds ------------------------------------------------------------------

    def range_on(self, lo, hi) -> tuple[Fraction, Fraction]:
        """Exact min/max over [lo, hi] (critical points of polynomials up to
        degree 2 in closed form; higher degrees via a fine sample plus a
        derivative-based slack, adequate for reporting)."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if self.kind == "pwl":
            vals = [self.value_exact(lo), self.value_exact(hi)]
            vals += [y for x, y in zip(self.xs, self.ys) if lo < x < hi]
            return min(vals), max(vals)
        vals = [self.value_exact(lo), self.value_exact(hi)] + self._vertex_inside(lo, hi)
        if len(self.coeffs) > 3:
            n = 64
            for k in range(1, n):
                t = lo + (hi - lo) * Fraction(k, n)
                vals.append(self.value_exact(t))
            slack = self.lipschitz() * float(hi - lo) / n
            return min(vals) - as_fraction(slack), max(vals) + as_fraction(slack)
        return min(vals), max(vals)

    def _vertex_inside(self, lo, hi) -> list[Fraction]:
        """[phi(v)] for the vertex v of a quadratic phi when lo < v < hi, else [].
        lo and hi are Fractions or doubles; either compares exactly with v."""
        if self._vertex is None or not lo < self._vertex[0] < hi:
            return []
        return [self._vertex[1]]

    def _value_at(self, x: float) -> tuple[int, int]:
        """phi(x) for a double x = m / 2^e, exactly: the integer sum
        N_k m^k 2^(e (d - k)) and its denominator D 2^(e d)."""
        m, q = x.as_integer_ratio()
        e = q.bit_length() - 1
        nums, den = self._scaled
        d = len(nums) - 1
        acc = nums[-1]
        for k in range(d - 1, -1, -1):
            acc = acc * m + (nums[k] << (e * (d - k)))
        return acc, den << (e * d)

    def bounds(self, lo: float, hi: float) -> tuple[float, float]:
        """Doubles at or below the least value and at or above the greatest
        value of phi on [lo, hi], for doubles lo <= hi: the largest and the
        smallest such doubles, except for range_on's slack at degree > 2.

        A polynomial of degree <= 2 takes one exact integer evaluation per
        end, plus its vertex when that lies inside; any other observable
        goes through ``range_on``.
        """
        if self.kind != "poly" or self._scaled is None:
            vals = [(v.numerator, v.denominator) for v in self.range_on(Fraction(lo), Fraction(hi))]
        else:
            vals = [self._value_at(lo), self._value_at(hi)]
            vals += [(v.numerator, v.denominator) for v in self._vertex_inside(lo, hi)]
        # rounding is monotone: the least rounded-down value rounds the least value down
        return (
            min(dyadic.quotient_float(n, d) for n, d in vals),
            max(dyadic.quotient_float(n, d, round_up=True) for n, d in vals),
        )

    def range_global(self) -> tuple[float, float]:
        lo, hi = self.range_on(0, 1)
        return float(lo), float(hi)

    def lipschitz(self) -> float:
        """Upper bound for |phi'| on [0,1]."""
        if self.kind == "pwl":
            slopes = np.abs(np.diff(self.fys) / np.diff(self.fxs))
            return float(slopes.max()) if len(slopes) else 0.0
        return float(sum(abs(c) for c in self._fd)) if self._fd else 0.0
