"""Builders and closed-form counts for the universal complexes over F_p.

X(F_p^n) has the nonzero vectors of F_p^n as vertices, with simplices the
linearly independent subsets.  K(F_p^n) has the lines through the origin as
vertices, with simplices the sets of lines spanning a subspace of dimension
equal to their number.  Both are pure of dimension n-1 and carry a transitive
GL(n, F_p) action, which is what makes the closed-form face counts below work.

The builder grows simplices in the shared frontier loop with the quotient
step `fplin._quotient_step_fp`: a simplex sigma carries the rows of a
surjection F_p^n -> F_p^(n-k) with kernel span(sigma), and a later vertex w
extends it iff its image under that surjection is nonzero.  The built level
sizes are checked against the closed-form f-vector, a second derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial, prod

from .errors import InputError, ResourceLimitError
from .fplin import (
    FpLine,
    FpVector,
    PrimeField,
    enumerate_lines_fp,
    enumerate_vectors_fp,
    line_canonical_fp,
    _quotient_step_fp,
)
from .scomplex import FVector, SimplicialComplex, grow_by_extension

DEFAULT_SIMPLEX_BUDGET = 10**7


@dataclass(frozen=True)
class UniversalKind:
    variant: str  # "X" (vector vertices) or "K" (line vertices)
    p: int
    n: int

    def __post_init__(self):
        if self.variant not in ("X", "K"):
            raise InputError(f"variant must be 'X' or 'K', got {self.variant!r}")
        PrimeField(self.p)  # primality check
        if self.n < 1:
            raise InputError(f"ambient dimension must be >= 1, got {self.n}")

    @property
    def field(self):
        return PrimeField(self.p)

    def __str__(self):
        return f"{self.variant}(F_{self.p}^{self.n})"


@dataclass(frozen=True)
class SphereCount:
    dimension: int
    count: int


def _exact_div(num, den, what):
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"non-exact division in {what}: {num} / {den}")
    return q


def formula_f_vector(kind, link_dim=None):
    """Closed-form f-vector of the universal complex, or of the link of an
    i-simplex when link_dim = i is given.  All divisions are checked exact."""
    p, n = kind.p, kind.n
    line_factor = (p - 1) if kind.variant == "K" else 1
    entries = [1]
    if link_dim is None:
        for i in range(n):
            num = prod(p**n - p**j for j in range(i + 1))
            den = factorial(i + 1) * line_factor ** (i + 1)
            entries.append(_exact_div(num, den, f"f_{i}({kind})"))
    else:
        i = link_dim
        if not 0 <= i <= n - 1:
            raise InputError(f"link dimension {i} out of range [0, {n - 1}]")
        for k in range(n - i - 1):
            num = prod(p**n - p**(i + 1 + j) for j in range(k + 1))
            den = factorial(k + 1) * line_factor ** (k + 1)
            entries.append(_exact_div(num, den, f"f_{k}(link_{i} {kind})"))
    return FVector(tuple(entries))


def sphere_count(kind, link_dim=None):
    """Number of top spheres in the wedge decomposition, as the alternating
    sum of the closed-form face counts; the sphere dimension is n-1 for the
    whole complex and n-i-2 for links of i-simplices."""
    fv = formula_f_vector(kind, link_dim)
    top = len(fv.entries) - 2
    count = (-1) ** (top + 1) + sum(
        (-1) ** (top - k) * fv.entries[k + 1] for k in range(top + 1)
    )
    if count < 0:
        raise AssertionError(f"negative sphere count for {kind}, link_dim={link_dim}")
    return SphereCount(top, count)


def total_simplex_count(kind):
    return sum(formula_f_vector(kind).entries[1:])


def build_universal(kind, budget=DEFAULT_SIMPLEX_BUDGET):
    """Construct the complex explicitly by incremental extension: a simplex
    is grown only by vertices (in enumeration order, past its last one) that
    raise the rank, so each unimodular subset is produced exactly once.  The
    rank test is the quotient step, starting from the identity rows."""
    if total_simplex_count(kind) > budget:
        raise ResourceLimitError(
            f"{kind} has {total_simplex_count(kind)} simplices, over budget {budget}"
        )
    p, n = kind.p, kind.n
    field = kind.field
    if kind.variant == "X":
        labels_seq = enumerate_vectors_fp(n, field)
        gens = [v.coords for v in labels_seq]
    else:
        labels_seq = enumerate_lines_fp(n, field)
        gens = [l.generator.coords for l in labels_seq]
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    by_dim = grow_by_extension(gens, n, identity, partial(_quotient_step_fp, p=p),
                               budget, str(kind))
    labels = {i: lab for i, lab in enumerate(labels_seq)}
    meta = {"universal": kind, "ring": "fp", "p": p, "n": n, "variant": kind.variant}
    K = SimplicialComplex(by_dim, labels, meta)
    if K.dim != n - 1 or not K.is_pure():
        raise AssertionError(f"built {kind} is not pure of dimension {n - 1}")
    built, formula = K.f_vector().entries, formula_f_vector(kind).entries
    if built != formula:
        raise AssertionError(
            f"built {kind} has f-vector {built}, the closed form gives {formula}"
        )
    return K


def standard_pivot_ids(K):
    """Vertex ids of e_1, ..., e_n (X) or L(e_1), ..., L(e_n) (K), in order.

    These are the pivot schedules used by the greedy matchings and the
    counts of pivot-free facets."""
    kind = K.meta.get("universal")
    if kind is None:
        raise InputError("complex does not carry universal metadata")
    n = kind.n
    want = []
    for i in range(n):
        coords = tuple(1 if j == i else 0 for j in range(n))
        if kind.variant == "X":
            want.append(FpVector(coords))
        else:
            want.append(FpLine(FpVector(coords)))
    by_label = {lab: v for v, lab in K.labels.items()}
    return tuple(by_label[w] for w in want)


# -- the projection phi and its sections psi --------------------------------


def phi_vertex_map(x_complex, k_complex):
    """Vertex map of phi: each nonzero vector to the line it generates."""
    kind = x_complex.meta.get("universal")
    if kind is None or kind.variant != "X":
        raise InputError("phi projects from an X(F_p^n) complex")
    field = kind.field
    line_id = {lab: v for v, lab in k_complex.labels.items()}
    return {
        v: line_id[line_canonical_fp(lab, field)]
        for v, lab in x_complex.labels.items()
    }


def project_phi(x_complex, k_complex, simplex):
    """Image of an X-simplex under phi, as a simplex of K (equal dimension)."""
    vmap = phi_vertex_map(x_complex, k_complex)
    s = tuple(simplex)
    if s not in x_complex:
        raise InputError(f"simplex {s} not in the source complex")
    image = tuple(sorted(vmap[v] for v in s))
    if len(set(image)) != len(s) or image not in k_complex:
        raise AssertionError(f"phi degenerated on {s}")
    return image


def section_psi(k_complex, x_complex, choice=None):
    """Vertex map of a section psi of phi: each line to a generator on it.

    `choice` maps FpLine labels to FpVector generators; by default the
    canonical (first-nonzero = 1) generator is used.  A generator off its
    line is an input error."""
    kind = k_complex.meta.get("universal")
    if kind is None or kind.variant != "K":
        raise InputError("psi is a section over a K(F_p^n) complex")
    field = kind.field
    vec_id = {lab: v for v, lab in x_complex.labels.items()}
    out = {}
    for v, line in k_complex.labels.items():
        gen = line.generator if choice is None else choice[line]
        if line_canonical_fp(gen, field) != line:
            raise InputError(f"generator {gen} does not lie on line {line}")
        out[v] = vec_id[gen]
    return out


def map_simplex(vmap, simplex):
    return tuple(sorted(vmap[v] for v in simplex))


def eq_an_basis_count(k_complex):
    """The count of top simplices of K(F_p^n) containing none of the standard
    lines L(e_1), ..., L(e_n).  Equivalently, the number of vector-set bases
    avoiding all scalar multiples of the e_i, divided by (p-1)^n.  Reported
    alongside sphere_count, which is the homologically correct value; the two
    are not asserted equal."""
    kind = k_complex.meta.get("universal")
    if kind is None or kind.variant != "K":
        raise InputError("Eq-(A_n)-style count is defined for K complexes")
    pivots = set(standard_pivot_ids(k_complex))
    return sum(
        1 for f in k_complex.simplices_of_dim(kind.n - 1) if not pivots & set(f)
    )
