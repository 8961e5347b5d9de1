"""Homomorphism search — the stable public API.

Homomorphisms are the single semantic primitive of the paper: CQ evaluation,
CQ containment (Chandra–Merlin), chase applicability, and the universality of
the chase are all phrased through them.  A homomorphism from a set of atoms
``A`` into an instance ``I`` maps variables and nulls of ``A`` to terms of
``I`` and is the identity on constants, such that the image of every atom of
``A`` is an atom of ``I``.

The search itself lives in :mod:`repro.kernel.search`; this module
re-exports its three entry points unchanged (one hom-check entry point,
not a wrapper per layer) and adds the instance-level helpers.  The
kernel versions additionally accept ``limit=`` (a working-instance
watermark).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..kernel.search import (  # noqa: F401 - re-exported entry points
    find_homomorphism,
    has_homomorphism,
    homomorphisms,
)
from .atoms import Atom
from .instance import Instance
from .terms import Term

def instance_homomorphism(
    source: Instance, target: Instance
) -> Optional[Dict[Term, Term]]:
    """A homomorphism between instances (nulls mapped, constants fixed)."""
    return find_homomorphism(tuple(source), target)


def is_hom_equivalent(left: Instance, right: Instance) -> bool:
    """True iff the two instances are homomorphically equivalent."""
    return (
        instance_homomorphism(left, right) is not None
        and instance_homomorphism(right, left) is not None
    )


def apply_assignment(
    atoms: Iterable[Atom], assignment: Mapping[Term, Term]
) -> Tuple[Atom, ...]:
    """Apply an assignment to a collection of atoms."""
    return tuple(a.substitute(assignment) for a in atoms)
