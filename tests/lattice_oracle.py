"""Lattice-likeness decided on an instance, as the tests' reference.

``Construction.lattice_like`` answers from the tile and its homomorphism
alone; this oracle answers on the components of a concrete torus instance,
by searching each component's shift from the first and testing the shifts
for a subgroup, so the tests can check the tile's answer against it on
period tori.
"""


def lattice_like_by_shift_search(inst):
    """Is the instance a lattice of translates of one component?

    For each component, search the shifts that move the first component's
    vertices onto one of its vertices, then test the offsets found for a
    subgroup of the torus by incremental closure.  An instance with no
    components is vacuously one."""
    if not inst.components:
        return True
    dims = inst.torus
    base = inst.components[0]
    base_set = set(base.vertices)
    base_anchor = base.vertices[0]
    offsets = set()
    for comp in inst.components:
        if len(comp) != len(base):
            return False
        found = None
        for u in comp.vertices:
            z = tuple((a - b) % d for a, b, d in zip(u, base_anchor, dims))
            shifted = {tuple((a + b) % d for a, b, d in zip(v, z, dims))
                       for v in base_set}
            if shifted == set(comp.vertices):
                found = z
                break
        if found is None:
            return False
        offsets.add(found)

    subgroup = {(0,) * len(dims)}
    if (0,) * len(dims) not in offsets:
        return False
    for z in sorted(offsets):
        if z in subgroup:
            continue
        current = list(subgroup)
        shift = z
        while shift not in subgroup:
            coset = [tuple((a + b) % d for a, b, d in zip(v, shift, dims))
                     for v in current]
            for w in coset:
                if w not in offsets:
                    return False
                subgroup.add(w)
            shift = tuple((a + b) % d for a, b, d in zip(shift, z, dims))
    return len(subgroup) == len(offsets)
