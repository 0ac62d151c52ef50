"""Action-package mutations used to show each axiom clause can fail with a witness.

Each mutation takes a healthy Weyl-derived ActionPackage and returns a broken
copy.  A mutation is written as a map over ids, on the package's maps over
ids (:func:`oracles.action_maps`), and tabulated into the copy's arrays by
:func:`oracles.tabulate_actions`.  EXPECTED_FAILURES maps mutation name ->
the clause(s) that must report False; a mutation may break more clauses
than listed, but never fewer.
"""

from oracles import action_maps, tabulate_actions


def _anchors(pkg):
    """A non-unit arrow, a non-self-inverse bundle element, and a swap partner."""
    H, T = pkg.H, pkg.T
    eta0 = next(a for a in sorted(H.arrows) if not H.is_unit(a))
    t0 = next(t for t in pkg.t_elements() if T.inv(t) != t)
    t1 = next(
        t for t in T.fibre(T.p[t0])
        if t not in (t0, T.identity[T.p[t0]], T.inv(t0))
    )
    return eta0, t0, t1


def mut_units_left(pkg):
    """Left action on units answers with the inverse bundle element."""
    _, _, _ = _anchors(pkg)
    H, T = pkg.H, pkg.T
    left, right, _, _ = action_maps(pkg)
    return tabulate_actions(
        pkg,
        left=lambda t, eta: right(eta, T.inv(t)) if H.is_unit(eta) else left(t, eta),
    )


def mut_rho_inverts_units(pkg):
    """rho on unit arrows inverts instead of being the identity."""
    H, T = pkg.H, pkg.T
    rho = action_maps(pkg)[3]
    return tabulate_actions(
        pkg,
        rho=lambda t, eta: T.inv(t) if H.is_unit(eta) else rho(t, eta),
    )


def mut_left_constant(pkg):
    """Left action fixes every arrow (never free)."""
    return tabulate_actions(pkg, left=lambda t, eta: eta)


def mut_right_constant(pkg):
    """Right action fixes every arrow (never free)."""
    return tabulate_actions(pkg, right=lambda eta, t: eta)


def mut_lambda_identity(pkg):
    """lambda forced to the identity; wrong whenever conjugation is nontrivial."""
    return tabulate_actions(pkg, lam=lambda eta, t: t)


def mut_rho_identity(pkg):
    """rho forced to the identity; wrong whenever conjugation is nontrivial."""
    return tabulate_actions(pkg, rho=lambda t, eta: t)


def mut_lambda_swap(pkg):
    """lambda output has two values swapped: no longer a homomorphism."""
    H = pkg.H
    _, t0, t1 = _anchors(pkg)
    healthy = action_maps(pkg)[2]

    def lam(eta, t):
        v = healthy(eta, t)
        if not H.is_unit(eta):
            if v == t0:
                return t1
            if v == t1:
                return t0
        return v

    return tabulate_actions(pkg, lam=lam)


def mut_rho_class_flip(pkg):
    """rho inverted over one quotient class only."""
    H, T = pkg.H, pkg.T
    c_flip = min(a[0] for a in H.arrows if not H.is_unit(a))
    healthy = action_maps(pkg)[3]

    def rho(t, eta):
        v = healthy(t, eta)
        return T.inv(v) if eta[0] == c_flip else v

    return tabulate_actions(pkg, rho=rho)


def mut_left_char_dependent(pkg):
    """Left action inverts the bundle element when the arrow's character is nontrivial.

    The two orders of acting then disagree, so the actions no longer commute.
    """
    H, T = pkg.H, pkg.T
    data = pkg.weyl
    healthy = action_maps(pkg)[0]

    def left(t, eta):
        chi = data.dual.by_id[eta[1]]
        if not chi.is_trivial and not H.is_unit(eta):
            return healthy(T.inv(t), eta)
        return healthy(t, eta)

    return tabulate_actions(pkg, left=left)


MUTATIONS = {
    "units_left": mut_units_left,
    "rho_inverts_units": mut_rho_inverts_units,
    "left_constant": mut_left_constant,
    "right_constant": mut_right_constant,
    "lambda_identity": mut_lambda_identity,
    "rho_identity": mut_rho_identity,
    "lambda_swap": mut_lambda_swap,
    "rho_class_flip": mut_rho_class_flip,
    "left_char_dependent": mut_left_char_dependent,
}

# mutation -> clauses that must fail (verified minimum, not an exhaustive list)
EXPECTED_FAILURES = {
    "units_left": ["units_compatible", "endpoints_compatible"],
    "rho_inverts_units": ["identity_on_units", "rho_composition"],
    "left_constant": ["left_free", "inverse_left", "inverse_right"],
    "right_constant": ["right_free"],
    "lambda_identity": ["right_via_lambda", "lambda_rho_inverse", "right_distributes"],
    "rho_identity": ["left_via_rho", "left_distributes"],
    "lambda_swap": ["lambda_multiplicative", "lambda_composition"],
    "rho_class_flip": ["left_via_rho", "lambda_rho_inverse"],
    "left_char_dependent": ["actions_commute"],
}

# every clause name must be covered by at least one mutation
ALL_CLAUSES = sorted({c for cs in EXPECTED_FAILURES.values() for c in cs})
