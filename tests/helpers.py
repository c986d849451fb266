"""Helpers shared by the test modules."""

from genoball.complexes import Complex, from_facets


def relabel(C: Complex, mapping: dict[int, int]) -> Complex:
    """The same complex with vertex ids replaced through ``mapping``."""
    return from_facets([[mapping[v] for v in f] for f in C.facets])
