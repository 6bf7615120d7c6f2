"""Arithmetic in Z[x]/(x^p - 1) for a prime p.

Two elements drive everything downstream: the twist t = x - 1, which
generates the augmentation kernel, and the norm 1 + x + ... + x^{p-1},
which spans the fixed ideal and kills the twist (t * norm == 0).  The
central fact is an explicit decomposition

    p == -t^(p-1) + t^p * twist_coeff + norm * norm_coeff

produced by an iterated substitution; every step of the iteration is
re-verified by exact arithmetic, so a returned PrimeIdentities object is
its own proof.

``RingElt.on`` is the one home of operator polynomials: the norm and
twist operators of modules and lattices, and every ``lam`` applied to a
presentation, are ring elements evaluated at an action matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternalInvariantError, PreconditionError
from .intlinalg import IntMatrix, _addmul


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RingElt:
    """Element of Z[x]/(x^p - 1), stored as p coefficients, low degree first.

    Exponents reduce mod p on construction, so RingElt(p, coeffs) accepts a
    coefficient list of any length.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if not is_prime(p):
            raise PreconditionError(f"modulus {p} is not prime")
        cs = [0] * p
        for e, c in enumerate(coeffs):
            cs[e % p] += int(c)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _wrap(cls, p: int, coeffs: tuple[int, ...]) -> "RingElt":
        """An element of p plain ints from operands already built: no prime check, no fold."""
        out = object.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RingElt is immutable")

    def _same_ring(self, other: "RingElt") -> None:
        if self.p != other.p:
            raise PreconditionError("mixed moduli")

    def __add__(self, other: "RingElt") -> "RingElt":
        self._same_ring(other)
        return RingElt._wrap(self.p, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __sub__(self, other: "RingElt") -> "RingElt":
        self._same_ring(other)
        return RingElt._wrap(self.p, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "RingElt":
        return RingElt._wrap(self.p, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElt._wrap(self.p, tuple([other * a for a in self.coeffs]))
        if not isinstance(other, RingElt):
            return NotImplemented
        self._same_ring(other)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (2 * self.p)  # exponents up to 2p - 2, folded mod p once at the end
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return RingElt._wrap(self.p, tuple([x + y for x, y in zip(out, out[self.p :])]))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def pow(self, k: int) -> "RingElt":
        if k < 0:
            raise PreconditionError("negative power")
        out = const(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def aug(self) -> int:
        """Augmentation: evaluate at x = 1."""
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def matrix(self) -> IntMatrix:
        """Multiplication-by-self in the basis 1, x, ..., x^{p-1}: self on the shift x."""
        p = self.p
        return self.on(IntMatrix.unit_columns(p, [(j + 1) % p for j in range(p)]))

    def on(self, action: IntMatrix) -> IntMatrix:
        """The operator sum_e c_e action^e, for an action of order dividing p."""
        n = action.rows
        out = [{} for _ in range(n)]
        power = IntMatrix.identity(n)
        last = max((e for e, c in enumerate(self.coeffs) if c), default=0)
        for e in range(last + 1):
            if e:
                power = action if e == 1 else action @ power
            c = self.coeffs[e]
            if c:
                for acc, row in zip(out, power._ent):
                    _addmul(acc, row, c)
        return IntMatrix._wrap(out, n, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __str__(self) -> str:
        """Plain polynomial text in x, low degree first."""
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                mon = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}*{mon}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def __repr__(self) -> str:
        return f"RingElt({self.p}, {self})"


def const(p: int, n: int) -> RingElt:
    return RingElt(p, (n,))


def generator(p: int) -> RingElt:
    """The group generator x."""
    return RingElt(p, (0, 1))


def twist(p: int) -> RingElt:
    """t = x - 1."""
    return RingElt(p, (-1, 1))


def norm(p: int) -> RingElt:
    """1 + x + ... + x^{p-1}."""
    return RingElt(p, (1,) * p)


def divide_by_twist(e: RingElt) -> RingElt:
    """The canonical q with twist * q == e; requires e.aug() == 0.

    Quotients differ by multiples of the norm; canonical means top
    coefficient zero.
    """
    if e.aug() != 0:
        raise PreconditionError("not divisible by the twist: augmentation is nonzero")
    p = e.p
    b = [0] * p
    for j in range(p - 1, 0, -1):
        b[j - 1] = e.coeffs[j] + b[j]
    q = RingElt(p, b)
    if twist(p) * q != e:
        raise InternalInvariantError("twist division check failed")
    return q


def _exact_scalar_div(e: RingElt, n: int) -> RingElt:
    out = []
    for c in e.coeffs:
        q, r = divmod(c, n)
        if r:
            raise InternalInvariantError(f"coefficient {c} not divisible by {n}")
        out.append(q)
    return RingElt(e.p, out)


@dataclass(frozen=True)
class SubstitutionStep:
    """One state of the substitution: p == -t^(p-1) + t^p*twist_acc
    + p*carrier + norm*norm_acc."""

    twist_acc: RingElt
    carrier: RingElt
    norm_acc: RingElt


@dataclass(frozen=True)
class PrimeIdentities:
    """Verified identities attached to one prime p.

    * twist^(p-1) == p*core + norm             (so core.aug() == -1)
    * twist*seed == core + 1
    * p == -twist^(p-1) + twist^p*twist_coeff + norm*norm_coeff
    * steps records the substitution states that produced the last line.
    """

    p: int
    core: RingElt
    seed: RingElt
    twist_coeff: RingElt
    norm_coeff: RingElt
    steps: tuple[SubstitutionStep, ...]

    def twist_power_identity_holds(self, k: int) -> bool:
        """Whether twist^(k(p-1)) == p^k * core^k + (-1)^(k-1) * p^(k-1) * norm."""
        if k < 1:
            raise PreconditionError("k must be positive")
        p = self.p
        lhs = twist(p).pow(k * (p - 1))
        rhs = (p**k) * self.core.pow(k) + ((-1) ** (k - 1)) * (p ** (k - 1)) * norm(p)
        return lhs == rhs


def decompose_prime(p: int) -> PrimeIdentities:
    """Build and verify the decomposition of p inside Z[x]/(x^p - 1)."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    t, s, one = twist(p), norm(p), const(p, 1)
    tp1 = t.pow(p - 1)
    tp = tp1 * t

    core = _exact_scalar_div(tp1 - s, p)
    if tp1 != p * core + s:
        raise InternalInvariantError("core identity failed")
    if core.aug() != -1:
        raise InternalInvariantError("core augmentation is not -1")

    seed = divide_by_twist(core + one)
    ts = t * seed

    def invariant_holds(st: SubstitutionStep) -> bool:
        rhs = -tp1 + tp * st.twist_acc + p * st.carrier + s * st.norm_acc
        return rhs == const(p, p)

    state = SubstitutionStep(const(p, 0), ts, one)
    if not invariant_holds(state):
        raise InternalInvariantError("substitution start state invalid")
    steps = [state]
    t_m1, seed_m = one, seed  # t^(m-1) and seed^m, one product each per step

    for m in range(1, p):
        # carrier == (t*seed)^m here; fold its part that carries p extra
        # twist factors into the t^p bucket
        delta = -(t_m1 * seed_m)
        if tp * delta != -(tp1 * state.carrier):
            raise InternalInvariantError(f"substitution step {m} not exact")
        state = SubstitutionStep(
            state.twist_acc + delta, state.carrier * ts, state.norm_acc + state.carrier
        )
        if not invariant_holds(state):
            raise InternalInvariantError(f"invariant lost at step {m}")
        steps.append(state)
        t_m1, seed_m = t_m1 * t, seed_m * seed

    # carrier is now (t*seed)^p, divisible by t^p; absorb it and finish
    final_delta = p * seed_m
    if tp * final_delta != p * state.carrier:
        raise InternalInvariantError("final fold not exact")
    state = SubstitutionStep(state.twist_acc + final_delta, const(p, 0), state.norm_acc)
    if not invariant_holds(state):
        raise InternalInvariantError("final state invalid")
    steps.append(state)

    f, g = state.twist_acc, state.norm_acc
    if const(p, p) != -tp1 + tp * f + s * g:
        raise InternalInvariantError("prime decomposition failed verification")
    return PrimeIdentities(p, core, seed, f, g, tuple(steps))
