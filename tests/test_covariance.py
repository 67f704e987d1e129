"""Covariance of the Hessian chain under a linear change of coordinates.

For F of degree d and an invertible integer matrix A, with F∘A the form
F(A (x, y, z)):

- H(F∘A) = det(A)^2 * H(F)∘A, since hess(F∘A) = A^T (hess F ∘ A) A;
- H2(F∘A) = det(A)^9 * H2(F)∘A for both variants: H2 has degree 12 in F's
  coefficients and order 12d - 27, so its weight is (12d - (12d - 27)) / 3.
- the covariants of F∘A, with T the trace product, g the gradient form and
  v either gradient splitting of T: T' = det(A)^4 * T∘A and
  g' = det(A)^6 * g∘A, since adj(hess(F∘A)) = det(A)^2 A^-1 (adj hess F ∘ A)
  A^-T and grad H(F∘A) = det(A)^2 A^T (grad H ∘ A); and
  v'_k = det(A)^4 * sum_w A_wk * v_w∘A, the chain rule on a derivative of
  hess H or of adj hess F;
- osculating_conic(F∘A, A^-1 p) = osculating_conic(F, p)∘A up to a scalar,
  at a smooth non-inflection point p of V(F): A^-1 p lies on V(F∘A), and
  contact orders do not change under a change of coordinates.

For a parametrization phi of degree d, with A phi the triple A (phi0,
phi1, phi2) and phi∘B the forms phi(B (s, t)):

- xi(A phi) = det(A)^4 * xi(phi), since the Veronese products of A phi are
  Sym^2(A) times those of phi, and det Sym^2(A) = det(A)^4;
- xi(phi∘B) = det(B)^15 * xi(phi)∘B: xi is the Wronskian of six forms, and
  its rows are the partials of order 0..5, so 0 + 1 + ... + 5 factors of
  det(B) come out;
- the osculating conic of A phi at (s0 : t0) is that of phi composed with
  x -> adj(A) x, and the one of phi∘B at B^-1 (s0, t0) is that of phi at
  (s0 : t0), each up to a scalar that ``canonical`` takes off.
- the zero classes of xi, which ``conic_wronskian`` splits off, are the
  same for A phi as for phi, since the two xi differ by a scalar; for
  phi∘B each class keeps its degree and multiplicity, and a rational class
  at (s0 : t0) moves to B^-1 (s0 : t0).

For a ternary form G of degree k:

- pullback(G∘A, phi) = c^k * pullback(G, A phi), where A phi comes in as
  a ``RationalParam``, which divides the triple by its content c;
- the orders of G along phi∘B at B^-1 (s0 : t0) are those along phi at
  (s0 : t0), and so are the pullback's degree and the residual, since
  pullback(G, phi∘B) = pullback(G, phi)∘B.

xi is read from ``_wronskian_form``, the determinant step of
``conic_wronskian``, on the forms as they stand, and its dense list is read
back as an ``MPoly``: ``RationalParam`` would take the content of A phi off.

Each law checks the chain against itself, not against a second
implementation of the same formulas, so it would see a transposed index in
a helper that the library and the references share.  A sparse F has a dense
F∘A, so its laws run the sparse ``MPoly`` chain on one side and the dense
``TernaryForm`` chain on the other.  Up to d = 4 both sides are compared as
polynomials; above, where composing H2 takes seconds, at three random
integer points, where one wrong value is a counterexample.  There H2's
values come from ``second_hessian_at``, the chain on F's Taylor jet at the
point, which also carries the law to dense curves of d = 7..10.  A conic is
cheap to compose at any d, so the conic law is always compared exactly.
"""

import random
from math import gcd

import pytest

from sextactic.differential import (
    VARIANTS,
    InflectionPoint,
    SingularPoint,
    covariants,
    hessian,
    osculating_conic,
    second_hessian,
    second_hessian_at,
)
from sextactic.parse import parse_param
from sextactic.poly import ST, XYZ, MPoly, TernaryForm, _form, projective_ints
from sextactic.rational import (
    DegenerateParam,
    RationalError,
    RationalParam,
    _wronskian_form,
    conic_wronskian,
    intersection_orders,
    osculating_conic_family,
    pullback,
)

X, Y, Z = (MPoly.variable(XYZ, v) for v in XYZ)
EXACT_MAX_DEGREE = 4


def dense_curve(rng, d):
    """Every monomial of degree d, coefficients in [-5, 5], i outer, j inner."""
    return MPoly(
        XYZ,
        {(i, j, d - i - j): rng.randint(-5, 5) for i in range(d + 1) for j in range(d + 1 - i)},
    )


def det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def random_map(rng):
    """A with entries in [-2, 2], drawn row by row until det A != 0."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(a):
            return a


def adjugate3(a):
    """adj(A), so that A adj(A) = det(A) I; adj(A) p is A^-1 p projectively."""

    def cofactor(i, j):
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        return a[i1][j1] * a[i2][j2] - a[i1][j2] * a[i2][j1]

    return [[cofactor(j, i) for j in range(3)] for i in range(3)]


def images(a):
    """Row i of A (x, y, z), the image of the i-th variable."""
    return [row[0] * X + row[1] * Y + row[2] * Z for row in a]


def apply(a, p):
    return tuple(sum(c * v for c, v in zip(row, p)) for row in a)


# one sparse curve per degree: too few terms to fill its triangle, so the
# library keeps its MPoly chain; under the map drawn for it, each one's
# image fills its triangle
SPARSE = {
    3: X**2 * Y + Z**3,
    4: X**4 - X**3 * Y + Y**3 * Z,
    5: X**5 + Y**5 + Z**5,
    6: X**6 + Y**6 + Z**6 - 3 * X * Y**4 * Z,
}


def cases():
    """(id, d, F, A) for the dense curves of d = 3..6 and the sparse ones."""
    rng = random.Random(3)
    out = []
    for d in range(3, 7):
        out.append((f"dense{d}", d, dense_curve(rng, d), random_map(rng)))
    for d, f in SPARSE.items():
        out.append((f"sparse{d}", d, f, random_map(rng)))
    return out


CASES = {name: (d, f, a) for name, d, f, a in cases()}


def high_cases():
    """(id, d, F, A) for dense curves of d = 7..10, whose 2-Hessian law is
    checked at points only, from one Random(7) stream."""
    rng = random.Random(7)
    return [(f"dense{d}", d, dense_curve(rng, d), random_map(rng)) for d in range(7, 11)]


H2_CASES = {**CASES, **{name: (d, f, a) for name, d, f, a in high_cases()}}


def assert_covariant(left, right, weight, a, d, rng):
    """left = det(A)^weight * right∘A, as polynomials for d up to
    EXACT_MAX_DEGREE and at three random integer points above."""
    scale = det3(a) ** weight
    if d <= EXACT_MAX_DEGREE:
        assert left == scale * right.compose(images(a))
        return
    for _ in range(3):
        p = tuple(rng.randint(-9, 9) for _ in range(3))
        assert left.eval(p) == scale * right.eval(apply(a, p))


def test_sparse_curves_meet_both_chains():
    for name, (d, f, a) in CASES.items():
        assert isinstance(hessian(f.compose(images(a))).chain.f, TernaryForm)
        chain = MPoly if name.startswith("sparse") else TernaryForm
        assert isinstance(hessian(f).chain.f, chain)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hessian_has_weight_two(name):
    d, f, a = CASES[name]
    left = hessian(f.compose(images(a))).H
    assert not left.is_zero()
    assert_covariant(left, hessian(f).H, 2, a, d, random.Random(name))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(H2_CASES))
def test_second_hessian_has_weight_nine(name, variant):
    d, f, a = H2_CASES[name]
    g = f.compose(images(a))
    scale = det3(a) ** 9
    if d <= EXACT_MAX_DEGREE:
        left = second_hessian(g, variant)
        assert not left.is_zero()
        assert left == scale * second_hessian(f, variant).compose(images(a))
        return
    rng = random.Random(name + variant)
    values = []
    for _ in range(3):
        p = tuple(rng.randint(-9, 9) for _ in range(3))
        values.append(second_hessian_at(g, p, variant))
        assert values[-1] == scale * second_hessian_at(f, apply(a, p), variant)
    assert any(values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_covariants_have_their_weights(name):
    d, f, a = CASES[name]
    left = covariants(hessian(f.compose(images(a))))
    right = covariants(hessian(f))
    rng = random.Random(name)
    # x^2 y + z^3 has T = 0, and so both splittings vanish; every other
    # case has T and g nonzero
    assert not left.gradient_form.is_zero()
    assert left.trace_product.is_zero() == (name == "sparse3")
    assert_covariant(left.trace_product, right.trace_product, 4, a, d, rng)
    assert_covariant(left.gradient_form, right.gradient_form, 6, a, d, rng)
    for split in ("trace_grad_adj", "trace_grad_hess"):
        mine, theirs = getattr(left, split), getattr(right, split)
        for k in range(3):
            mixed = sum((a[w][k] * theirs[w] for w in range(3)), MPoly(XYZ, {}))
            assert_covariant(mine[k], mixed, 4, a, d, rng)


def planted_points(f, d, rng, count):
    """(F, p) pairs: f with its z^d coefficient moved so that V(F) passes
    through p = (a : b : 1), a and b in [-1, 1], as the benchmark generator
    plants its points; p is redrawn until it is smooth and not a flex."""
    out = []
    while len(out) < count:
        p = (rng.randint(-1, 1), rng.randint(-1, 1), 1)
        g = f - f.eval(p) * Z**d
        try:
            osculating_conic(g, p)
        except (SingularPoint, InflectionPoint):
            continue
        out.append((g, p))
    return out


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("dense")))
def test_osculating_conic_is_covariant(name):
    d, f, a = CASES[name]
    for g, p in planted_points(f, d, random.Random(name), 3):
        q = apply(adjugate3(a), p)
        assert apply(a, q) == tuple(det3(a) * v for v in p)
        want = osculating_conic(g, p).compose(images(a)).canonical()
        assert osculating_conic(g.compose(images(a)), q) == want


# the rational side: B (s, t) = (s + 2t, -s + t), det B = 3, and its inverse
# up to that scalar, B^-1 (s0, t0) = (s0 - 2 t0, s0 + t0) / 3
S, T = (MPoly.variable(ST, v) for v in ST)
B_IMAGES = (S + 2 * T, -S + T)
DET_B = 3


def unmap_parameter(at):
    s0, t0 = at
    return (s0 - 2 * t0, s0 + t0)


def as_forms(dense):
    return tuple(MPoly(ST, {(i, len(u) - 1 - i): c for i, c in enumerate(u)}) for u in dense)


def as_dense(forms, d):
    return [[f.terms.get((i, d - i), 0) for i in range(d + 1)] for f in forms]


def param_cases():
    """(id, dense forms, A, parameters) from one Random(5) stream: three
    params of each degree d = 4, 5, 6 with coefficients in [-3, 3], redrawn
    until RationalParam accepts them, each followed by A and by three
    parameters (randint(-5, 5) : randint(1, 5))."""
    rng = random.Random(5)
    out = []
    for d in (4, 5, 6):
        for k in range(3):
            while True:
                dense = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(3)]
                try:
                    RationalParam(*as_forms(dense))
                except RationalError:
                    continue
                break
            a = random_map(rng)
            ats = [(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3)]
            out.append((f"param{d}_{k}", dense, a, ats))
    return out


PARAM_CASES = {name: (dense, a, ats) for name, dense, a, ats in param_cases()}


def mapped_by_a(dense, a):
    return [[sum(c * u[i] for c, u in zip(row, dense)) for i in range(len(dense[0]))] for row in a]


def mapped_by_b(dense):
    d = len(dense[0]) - 1
    return as_dense([f.compose(B_IMAGES) for f in as_forms(dense)], d)


def xi_form(dense):
    return _form(_wronskian_form(dense), 0, 0, ST)


def conic_at(dense, at):
    try:
        return osculating_conic_family(RationalParam(*as_forms(dense)), at)
    except DegenerateParam:
        return DegenerateParam


@pytest.mark.parametrize("name", sorted(PARAM_CASES))
def test_wronskian_has_weight_four_under_a(name):
    dense, a, _ = PARAM_CASES[name]
    left = xi_form(mapped_by_a(dense, a))
    assert not left.is_zero()
    assert left == det3(a) ** 4 * xi_form(dense)


@pytest.mark.parametrize("name", sorted(PARAM_CASES))
def test_wronskian_has_weight_fifteen_under_b(name):
    dense, _, _ = PARAM_CASES[name]
    left = xi_form(mapped_by_b(dense))
    assert not left.is_zero()
    assert left == DET_B**15 * xi_form(dense).compose(B_IMAGES)


@pytest.mark.parametrize("name", sorted(PARAM_CASES))
def test_osculating_conic_family_is_covariant_under_a(name):
    dense, a, ats = PARAM_CASES[name]
    adj = images(adjugate3(a))
    for at in ats:
        want = conic_at(dense, at)
        if want is not DegenerateParam:
            want = want.compose(adj).canonical()
        assert conic_at(mapped_by_a(dense, a), at) == want


@pytest.mark.parametrize("name", sorted(PARAM_CASES))
def test_osculating_conic_family_is_invariant_under_b(name):
    dense, _, ats = PARAM_CASES[name]
    for at in ats:
        assert conic_at(mapped_by_b(dense), unmap_parameter(at)) == conic_at(dense, at)


def test_param_laws_meet_no_degenerate_parameter():
    """The conic laws above compare conics, not two DegenerateParam raises."""
    for dense, a, ats in PARAM_CASES.values():
        assert all(conic_at(dense, at) is not DegenerateParam for at in ats)


# the cuspidal params of the paper's examples: their zero classes have
# multiplicities up to 17, where the random params above have simple zeros
CUSPIDAL_PARAMS = {
    "quartic_cusp": "(s*t^3 : t^4 : s^3*t - s^4)",
    "quintic_two_cusps": "(s^5 : s^3*t^2 : s*t^4 + t^5)",
    "quintic_binomial": "(s^5 : s^3*t^2 : t^5)",
}


def scan_cases():
    """The params of PARAM_CASES with their A, and the cuspidal params, each
    with an A from one Random(5) stream."""
    rng = random.Random(5)
    out = {name: (dense, a) for name, (dense, a, _) in PARAM_CASES.items()}
    for name, text in sorted(CUSPIDAL_PARAMS.items()):
        out[name] = (list(parse_param(text).dense), random_map(rng))
    return out


SCAN_CASES = scan_cases()


def scan_classes(dense):
    return conic_wronskian(RationalParam(*as_forms(dense))).classes


def class_records(classes, move=lambda at: at):
    """(multiplicity, degree, points, parameter moved) of each class, sorted;
    the irrational classes last among equals."""
    return sorted(
        (z.multiplicity, z.factor.degree(), z.points, z.parameter is None, move(z.parameter) if z.parameter else ())
        for z in classes
    )


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_wronskian_classes_are_invariant_under_a(name):
    dense, a = SCAN_CASES[name]
    assert scan_classes(mapped_by_a(dense, a)) == scan_classes(dense)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_wronskian_classes_move_with_b(name):
    dense, _ = SCAN_CASES[name]
    want = class_records(scan_classes(dense), lambda at: projective_ints(unmap_parameter(at)))
    assert class_records(scan_classes(mapped_by_b(dense))) == want


def test_scan_laws_meet_rational_and_multiple_zeros():
    """The class laws above see rational parameters and multiplicities > 1."""
    classes = [z for dense, _ in SCAN_CASES.values() for z in scan_classes(dense)]
    assert sum(1 for z in classes if z.parameter is not None) >= 6
    assert {z.multiplicity for z in classes} >= {1, 10, 13, 17}


def ternary_form(rng, k):
    """Every monomial of degree k, coefficients in [-3, 3], i outer, j inner."""
    return MPoly(
        XYZ,
        {(i, j, k - i - j): rng.randint(-3, 3) for i in range(k + 1) for j in range(k + 1 - i)},
    )


def planted(g, k, point):
    """g moved to pass through the integer point: a multiple of g less a
    multiple of v^k, for the first coordinate v that is nonzero there."""
    i = next(i for i, c in enumerate(point) if c)
    return point[i] ** k * g - g.eval(point) * MPoly.variable(XYZ, XYZ[i]) ** k


def pullback_cases():
    """(id, param, A, G, parameters) from one Random(5) stream: two params
    of each degree d = 3, 4, 5 with coefficients in [-3, 3], redrawn until
    RationalParam accepts them, each followed by A, by two parameters
    (randint(-5, 5) : randint(1, 5)), and by one G of each degree k = 1..4,
    redrawn until its pullback is nonzero.  Every other G (by d + k + the
    param's index) is planted through the curve point at the first
    parameter, so that its order there is positive."""
    rng = random.Random(5)
    out = []
    for d in (3, 4, 5):
        for n in range(2):
            while True:
                dense = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(3)]
                try:
                    param = RationalParam(*as_forms(dense))
                except RationalError:
                    continue
                break
            a = random_map(rng)
            ats = [(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(2)]
            for k in range(1, 5):
                while True:
                    g = ternary_form(rng, k)
                    if (d + k + n) % 2 == 0:
                        g = planted(g, k, param.eval_point(ats[0]))
                    if not pullback(g, param).is_zero():
                        break
                out.append((f"param{d}_{n}_G{k}", param, a, g, ats))
    return out


PULLBACK_CASES = {name: rest for name, *rest in pullback_cases()}


@pytest.mark.parametrize("name", sorted(PULLBACK_CASES))
def test_pullback_of_composed_form(name):
    param, a, g, _ = PULLBACK_CASES[name]
    mapped = mapped_by_a(param.dense, a)
    content = gcd(*(c for u in mapped for c in u))
    k = g.homogeneous_degree()
    left = pullback(g.compose(images(a)), param)
    assert not left.is_zero()
    assert left == pullback(g, RationalParam(*as_forms(mapped))) * content**k


@pytest.mark.parametrize("name", sorted(PULLBACK_CASES))
def test_intersection_orders_under_b(name):
    param, _, g, ats = PULLBACK_CASES[name]
    want = intersection_orders(g, param, ats)
    moved = RationalParam(*as_forms(mapped_by_b(param.dense)))
    got = intersection_orders(g, moved, [unmap_parameter(at) for at in ats])
    assert (got.orders, got.degree, got.residual) == (want.orders, want.degree, want.residual)


def test_pullback_laws_meet_positive_orders():
    """Half the forms are planted, so the B law compares positive orders."""
    planted_orders = [
        intersection_orders(g, param, ats[:1]).orders[0]
        for param, _, g, ats in PULLBACK_CASES.values()
    ]
    assert sum(1 for v in planted_orders if v > 0) >= len(planted_orders) // 2
