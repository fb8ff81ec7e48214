"""Group arithmetic and invariant factors, as the tests' reference.

``pdds`` ranks a vertex's syndrome with one dot product per cyclic factor
(``abelian.syndrome_rank``); these helpers compute the image itself, one
scaled generator at a time, so the tests can check that rank, the
bijection scan and the decoder against it.  :func:`invariant_factors`
rewrites any product of cyclic groups in invariant-factor form, the
reference for ``abelian.enumerate_abelian_groups``.
"""

from math import prod

from pdds.abelian import AbelianGroup, GroupElement, Homomorphism


def add(group: AbelianGroup, a: GroupElement, b: GroupElement) -> GroupElement:
    """a + b in the group."""
    return tuple((x + y) % m for x, y, m in zip(a, b, group.moduli))


def scale(group: AbelianGroup, c: int, a: GroupElement) -> GroupElement:
    """c * a in the group."""
    return tuple((c * x) % m for x, m in zip(a, group.moduli))


def phi_eval(hom: Homomorphism, p) -> GroupElement:
    """Image of a grid vertex: the residue-weighted sum of the generators."""
    if len(p) != hom.dim:
        raise ValueError(f"vertex dim {len(p)} != homomorphism dim {hom.dim}")
    g = hom.group
    acc = g.identity()
    for c, gen in zip(p, hom.generators):
        if c:
            acc = add(g, acc, scale(g, c, gen))
    return acc


def prime_exponents(m: int) -> dict[int, int]:
    """{p: a} with p^a exactly dividing m, by trial division."""
    out: dict[int, int] = {}
    p = 2
    while m > 1:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    return out


def invariant_factors(moduli) -> tuple[int, ...]:
    """The invariant factors d_1 | d_2 | ... of a product of cyclic groups.

    Each modulus splits into prime powers; per prime the exponents are
    sorted largest first, and the j-th of every prime multiply to the j-th
    largest factor.  Trivial factors drop out.

    >>> invariant_factors((4, 6))
    (2, 12)
    """
    powers: dict[int, list[int]] = {}
    for m in moduli:
        for p, e in prime_exponents(m).items():
            powers.setdefault(p, []).append(e)
    for exps in powers.values():
        exps.sort(reverse=True)
    depth = max(map(len, powers.values()), default=0)
    return tuple(prod(p ** exps[j] for p, exps in powers.items() if j < len(exps))
                 for j in reversed(range(depth)))
