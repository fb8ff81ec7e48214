"""The homomorphism evaluated by group arithmetic, as the tests' reference.

``pdds`` ranks a vertex's syndrome with one dot product per cyclic factor
(``abelian.syndrome_rank``); these helpers compute the image itself, one
scaled generator at a time, so the tests can check that rank, the
bijection scan and the decoder against it.
"""

from pdds.abelian import AbelianGroup, GroupElement, Homomorphism


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
            acc = g.add(acc, scale(g, c, gen))
    return acc
