"""The paper's closed form for the composite matrix datum of two members.

``check_algebraic`` reads a composite datum off the intersection of two
radix spaces.  ``gamma_composite`` is the closed form that the intersection
is tested against, where its hypotheses hold.
"""

from __future__ import annotations

from sudoku_ooa import FlagData


class HypothesisViolated(ValueError):
    """The closed-form composite matrix is undefined for this datum pair."""


def gamma_composite(di: FlagData, dj: FlagData):
    """Closed-form matrix datum of the intersection of two radix spaces.

    Defined when beta_i != beta_j and b_i(d_j-beta_j) - b_j(d_i-beta_i) != 0;
    equals the datum of intersect(V_i, V_j) computed by linear algebra.
    """
    f = di.field
    if f != dj.field:
        raise ValueError("data lie over different fields")
    mul, sub = f.mul, f.sub
    beta_diff = sub(di.beta, dj.beta)
    if beta_diff == 0:
        raise HypothesisViolated("beta_i equals beta_j")
    ei = sub(di.d, di.beta)  # d_i - beta_i
    ej = sub(dj.d, dj.beta)
    denom = sub(mul(di.b, ej), mul(dj.b, ei))
    if denom == 0:
        raise HypothesisViolated("b_i(d_j-beta_j) - b_j(d_i-beta_i) is zero")
    inv_denom = f.inv(denom)
    bb = mul(di.b, dj.b)
    a12 = mul(
        f.add(
            mul(bb, sub(di.c, dj.c)),
            sub(mul(mul(dj.a, di.b), ej), mul(mul(di.a, dj.b), ei)),
        ),
        inv_denom,
    )
    b12 = mul(mul(bb, beta_diff), inv_denom)
    c12 = mul(
        f.add(
            sub(mul(mul(di.b, di.c), ej), mul(mul(dj.b, dj.c), ei)),
            mul(mul(sub(dj.a, di.a), ei), ej),
        ),
        inv_denom,
    )
    d12 = mul(
        sub(mul(mul(di.beta, di.b), ej), mul(mul(dj.beta, dj.b), ei)), inv_denom
    )
    return ((a12, b12), (c12, d12))
