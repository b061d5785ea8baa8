"""Reference routes for the closed-form atom classes in cobordlab.chow.

These are the direct forms of the two builders: the slice walks every
partition of the weight and reduces each multinomial coefficient mod p, and
the hypersurface class is summed as BPoly products.  The library builds the
same classes from their nonzero terms only; the tests compare the two.
"""

from collections import Counter
from math import comb, factorial

from cobordlab import partitions as pt
from cobordlab.fpring import BPoly


def reference_slice(p: int, k: int, w: int) -> BPoly:
    """Weight-w slice of S^(-k): (-1)^L * binom(k-1+L, L) * L!/prod(m_j!) at each partition."""
    terms = {}
    for alpha in pt.partitions_of(w):
        L = len(alpha)
        c = comb(k - 1 + L, L) * factorial(L)
        for mult in Counter(alpha).values():
            c //= factorial(mult)
        c = (-c) % p if L % 2 else c % p
        if c:
            terms[alpha] = c
    return BPoly(p, terms)


def reference_h_class(p: int, n: int, m: int) -> BPoly:
    """[H(n,m)] = sum C(i+1, n-a) * A_a * B_b * b_i over a <= n, b <= m, i = n+m-1-a-b >= 0."""
    d = n + m - 1
    if d < 0:
        return BPoly.zero(p)
    A = [reference_slice(p, n + 1, a) for a in range(n + 1)]
    B = [reference_slice(p, m + 1, b) for b in range(m + 1)]
    total = BPoly.zero(p)
    for i in range(d + 1):
        inner = BPoly.zero(p)
        for a in range(max(0, d - i - m), min(n, d - i) + 1):
            c = comb(i + 1, n - a) % p
            if c:
                inner = inner + (A[a] * B[d - i - a]).scale(c)
        total = total + (inner * BPoly.monomial(p, (i,)) if i else inner)
    return total
