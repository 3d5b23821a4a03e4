"""Lattice data for plotting the n = 2 exponent simplex.

Emits coordinates only: the simplex vertices m*e_i, the per-component
support points, the hyperplane classes of the first nontrivial stabilizer
direction (when one exists) as stability.hyperplane_partition groups them,
and the face of each block.  Rendering is left to external tools.
"""

from __future__ import annotations

from .documents import format_fraction
from .errors import WrongDimension
from .poly import ProjectiveMap
from .stability import detect_blocks, hyperplane_partition, stabilizer_space


def build_figure_data(f: ProjectiveMap) -> dict:
    if f.n != 2:
        raise WrongDimension(f"figure data is defined for n = 2, got n = {f.n}")
    m = f.m
    data: dict = {
        "n": f.n,
        "m": m,
        "simplex_vertices": [[m if j == i else 0 for j in range(3)]
                             for i in range(3)],
        "supports": [sorted(list(e) for e in comp.support())
                     for comp in f.components],
    }
    stab = stabilizer_space(f)
    sol = stab.nontrivial_solution()
    if sol is not None:
        classes = sorted((format_fraction(level), list(js)) for level, js
                         in hyperplane_partition(f, sol).hyperplane_classes)
        data["hyperplanes"] = {
            "c": [format_fraction(x) for x in sol.c],
            "classes": [{"level": lv, "components": js} for lv, js in classes],
            "vertex_levels": [format_fraction(m * sol.c[i]) for i in range(3)],
        }
    data["block_faces"] = [sorted(bl.variables) for bl in detect_blocks(f)]
    return data
