"""Verification harness: manufactured cases and the solver studies on them
(``parax mms``), the per-order chain audit, scaled-Maxwell residuals,
convergence and eta-scaling studies.

The workhorse manufactured case is a separable trigonometric mode family
with polynomial-in-time charge density and conservation-compatible currents.
All five field components of orders 0 and 1 have closed forms (coefficients
derived by substituting the mode ansatz into the per-order chain), so the
hierarchy can be checked field by field and the reconstruction residual of
the scaled Maxwell system can be studied against eta with the discretization
error Richardson-corrected across two grids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from .elliptic import (
    BoundarySpec,
    DIRICHLET,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
    solve_poisson_2d,
)
from .fields import ScalarField, VectorField2
from .hierarchy import (
    ChainContext,
    ExternalField,
    FieldHistory,
    HierarchySolver,
    SourceTerms,
    backward_rate,
    bperp_normal_trace,
)
from .mesh import FACE_ORDER, Mesh, build_mesh
from .operators import (
    boundary_normal_trace,
    boundary_tangential_trace,
    circulation,
    cross_ez,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    norms,
    weighted_norms,
)

log = logging.getLogger(__name__)

ETA_DEPENDENT_EQUATIONS = ("ampere_perp", "ampere_zeta", "faraday_perp", "faraday_zeta")


# -- manufactured solutions ----------------------------------------------------

def _axes(mesh: Mesh):
    """x - x0, y - y0 and zeta, shaped to broadcast over (nzeta, ny, nx):
    each factor of a separable shape is evaluated on its own axis only."""
    return mesh.x - mesh.x0, (mesh.y - mesh.y0)[:, None], mesh.zeta[:, None, None]


@dataclass(frozen=True)
class QuasiStaticMode:
    """Single-mode family: rho = (1 + alpha t + alpha2 t^2) R0 sin sin cos(kz zeta).

    The charge density is paired with the longitudinal current required by
    charge conservation and an optional divergence-free transverse current
    (strength jc) that excites rotational first-order fields.  Orders 0 and
    1 are exact separable modes of the chain with the parity-matched
    zeta-end closures; a nonzero alpha2 populates genuine order-2 content
    for the eta-scaling study.
    """

    mesh: Mesh
    beta: float
    amplitude: float = 1.0   # R0
    alpha: float = 0.0       # linear time growth rate of rho
    alpha2: float = 0.0      # quadratic growth; feeds genuine order-2 content
    jc: float = 0.0          # divergence-free transverse current strength
    bz_external: float = 0.0
    dt_hist: float = 0.0     # snapshot spacing; > 0 makes Jzeta satisfy the
                             # backward-difference charge conservation exactly

    def growth(self, t: float) -> float:
        return 1.0 + self.alpha * t + self.alpha2 * t**2

    def backward_rate(self, t: float) -> float:
        """The family's one rate: (growth(t) - growth(t - dt_hist)) / dt_hist,
        which is the true rate d growth/dt when dt_hist = 0."""
        return self.alpha + 2.0 * self.alpha2 * t - self.alpha2 * self.dt_hist

    @property
    def kappa(self) -> float:
        return 1.0 - self.beta**2

    def _wavenumbers(self):
        m = self.mesh
        return np.pi / m.a, np.pi / m.b, np.pi / m.zlen

    def _shapes(self):
        xt, yt, z = _axes(self.mesh)
        kx, ky, kz = self._wavenumbers()
        sx, cx = np.sin(kx * xt), np.cos(kx * xt)
        sy, cy = np.sin(ky * yt), np.cos(ky * yt)
        C, S = np.cos(kz * z), np.sin(kz * z)
        return sx, cx, sy, cy, C, S

    def _coeffs(self, r: float):
        """Mode coefficients; the order-1 entries take the rate ``r`` that
        enters through Jzeta and drives the d/dt terms."""
        kx, ky, kz = self._wavenumbers()
        kap, b, R0 = self.kappa, self.beta, self.amplitude
        Kperp = kx**2 + ky**2
        K = Kperp + kap * kz**2
        A = -kap * R0 * kz / K
        P = -kap * R0 / K
        Xc = -R0 / K
        G = R0 * Kperp / K
        A1 = -b * (r * (A * kz + G) + r * R0) / K
        D1 = -kap * A1 * kz - r * b * R0 / kz - r * b * A
        P1 = -D1 / Kperp
        Rg = -A1 * kz - kz**2 * P1 - r * b * Xc * kz
        Rc = -b * self.jc * kz
        C1 = r * A + r * R0 / kz - b * A1 * kz
        Dv1 = Rc * Kperp / (b * K)
        return dict(kx=kx, ky=ky, kz=kz, Kperp=Kperp, K=K, A=A, P=P, X=Xc,
                    A1=A1, P1=P1, Rg=Rg, Rc=Rc, C1=C1, Dv1=Dv1)

    def sources(self, t: float = 0.0) -> SourceTerms:
        m = self.mesh
        sx, cx, sy, cy, C, S = self._shapes()
        kx, ky, kz = self._wavenumbers()
        R0 = self.amplitude
        rho = self.growth(t) * R0 * sx * sy * C
        # d rho/dt + d Jzeta/dzeta = 0 exactly (transverse current is
        # divergence-free, so it never enters the balance)
        Jz = -self.backward_rate(t) * R0 * sx * sy * S / kz
        Jx = self.jc * (-ky * cx * sy) * C
        Jy = self.jc * (kx * sx * cy) * C
        return SourceTerms(
            rho=ScalarField(m, rho),
            Jperp=VectorField2(m, Jx, Jy),
            Jzeta=ScalarField(m, Jz),
        )

    def exact_order(self, n: int, t: float = 0.0) -> dict:
        """Closed-form fields of order n (0 or 1) at time t.

        For n = 1 with a quadratic time profile the family needs ``dt_hist``,
        the snapshot spacing: the discrete chain drives order 1 with the
        backward-difference rate of the order-0 fields.
        """
        m = self.mesh
        sx, cx, sy, cy, C, S = self._shapes()
        if n == 1 and self.alpha2 != 0.0 and not self.dt_hist:
            raise ValueError("quadratic profile: order-1 forms need dt_hist")
        c = self._coeffs(self.backward_rate(t))
        kx, ky, kz = c["kx"], c["ky"], c["kz"]
        grad_x, grad_y = kx * cx * sy, ky * sx * cy
        rot_x, rot_y = -ky * cx * sy, kx * sx * cy

        if n == 0:
            g = self.growth(t)
            Ez = g * c["A"] * sx * sy * S
            Ecal = (g * c["P"] * C * grad_x, g * c["P"] * C * grad_y)
            Ep = (g * c["X"] * C * grad_x, g * c["X"] * C * grad_y)
            Bp = (-self.beta * g * c["X"] * C * ky * sx * cy,
                  self.beta * g * c["X"] * C * kx * cx * sy)
            Bz = np.full_like(Ez, self.bz_external)
        elif n == 1:
            Ez = c["A1"] * sx * sy * C
            Ecal = (c["P1"] * S * grad_x, c["P1"] * S * grad_y)
            Eg, Ec = -c["Rg"] / c["K"], -c["Rc"] / c["K"]
            Ep = (Eg * S * grad_x + Ec * S * rot_x,
                  Eg * S * grad_y + Ec * S * rot_y)
            Bg, Bc = c["Dv1"] / c["Kperp"], c["C1"] / c["Kperp"]
            Bp = (Bg * S * kx * sx * cy + Bc * S * ky * sx * cy,
                  Bg * S * ky * cx * sy - Bc * S * kx * cx * sy)
            Bz = c["Dv1"] / kz * (1.0 - C) * cx * cy
        else:
            raise ValueError("closed forms available for orders 0 and 1 only")
        return {
            "Ez": ScalarField(m, Ez),
            "Ecal": VectorField2(m, *Ecal),
            "Eperp": VectorField2(m, *Ep),
            "Bperp": VectorField2(m, *Bp),
            "Bz": ScalarField(m, Bz),
        }


# -- manufactured-solution studies ----------------------------------------------
# each target solves one grid of g nodes per transverse axis from manufactured
# data built on it, and returns the error field and its mesh

def _mms_poisson2d(g: int, beta: float):
    """The Poisson sine u = sin(kx x) sin(ky y) on one slice."""
    mesh = build_mesh(1.0, 1.0, 1.0, g, g, 3)
    xt, yt, _ = _axes(mesh)
    kx, ky = np.pi / mesh.a, np.pi / mesh.b
    u = np.sin(kx * xt) * np.sin(ky * yt)
    got = solve_poisson_2d(ScalarField(mesh, -(kx**2 + ky**2) * u),
                           BoundarySpec.uniform(DIRICHLET, 0.0))
    return got.values - u, mesh


def _mms_aniso3d(g: int, beta: float):
    """The Ez mode 111, u = sin sin sin, of the kappa-anisotropic 3D operator."""
    mesh = build_mesh(1.0, 1.0, 2.0, g, g, g)
    xt, yt, z = _axes(mesh)
    kx, ky, kz = np.pi / mesh.a, np.pi / mesh.b, np.pi / mesh.zlen
    kappa = 1.0 - beta**2
    u = np.sin(kx * xt) * np.sin(ky * yt) * np.sin(kz * z)
    got = solve_anisotropic_poisson_3d(
        kappa, ScalarField(mesh, -(kx**2 + ky**2 + kappa * kz**2) * u),
        BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True))
    return got.values - u, mesh


def _mms_divcurl(g: int, beta: float):
    """A = grad(sin sin) + curl(cos cos) on one slice: both channels are
    active, and the nonzero corner curl exercises the polynomial peel-off."""
    mesh = build_mesh(1.0, 1.0, 1.0, g, g, 3)
    xt, yt, _ = _axes(mesh)
    kx, ky = np.pi / mesh.a, np.pi / mesh.b
    sx, cx = np.sin(kx * xt), np.cos(kx * xt)
    sy, cy = np.sin(ky * yt), np.cos(ky * yt)
    exact = VectorField2(mesh, kx * cx * sy - ky * cx * sy, ky * sx * cy + kx * sx * cy)
    got = solve_divcurl_2d(ScalarField(mesh, -(kx**2 + ky**2) * sx * sy),
                           ScalarField(mesh, (kx**2 + ky**2) * cx * cy),
                           boundary_tangential_trace(exact))
    return np.hypot(got.x - exact.x, got.y - exact.y), mesh


def _mode_order0(g: int, beta: float):
    """The chain's solver, context and exact order-0 fields of the static
    :class:`QuasiStaticMode` on a cold start."""
    mesh = build_mesh(1.0, 1.0, 2.0, g, g, g)
    case = QuasiStaticMode(mesh=mesh, beta=beta)
    ctx = ChainContext(sources=case.sources(0.0), previous=None, time=0.0)
    return HierarchySolver(mesh, beta), ctx, case.exact_order(0, 0.0), mesh


def _mms_ez(g: int, beta: float):
    solver, ctx, exact, mesh = _mode_order0(g, beta)
    return solver.solve_Ez_order(0, ctx).values - exact["Ez"].values, mesh


def _mms_eperp(g: int, beta: float):
    """The Eperp stage, fed the exact Ecal and Ez of order 0."""
    solver, ctx, exact, mesh = _mode_order0(g, beta)
    E = solver.solve_Eperp_order(0, exact["Ecal"], solver.gauss(0, exact["Ez"], ctx), ctx)
    return np.hypot(E.x - exact["Eperp"].x, E.y - exact["Eperp"].y), mesh


MMS_TARGETS = {
    "poisson2d": _mms_poisson2d,
    "aniso3d": _mms_aniso3d,
    "divcurl": _mms_divcurl,
    "ez": _mms_ez,
    "eperp": _mms_eperp,
}


def mms_study(target: str, grids, beta: float,
              target_order: float | None = None) -> ConvergenceReport:
    """Convergence of ``MMS_TARGETS[target]``: the L2 error over the nodes
    one row in from each face on each grid of g nodes per transverse axis,
    fitted against h = 1 / (g - 1)."""
    hs, errs = [], []
    for g in grids:
        err, mesh = MMS_TARGETS[target](g, beta)
        errs.append(norms(err, mesh)["l2"])
        hs.append(1.0 / (g - 1))
    return convergence_study(hs, errs, target_order=target_order, label=target)


# -- chain audit -----------------------------------------------------------------

def chain_audit(history: FieldHistory, sources: SourceTerms) -> dict[int, dict]:
    """The a-posteriori checks of every order of ``history.latest``, keyed by
    order, each formed from what the chain held when it solved that order.

    ``history`` is the one the solve read, with the solved hierarchy pushed
    onto it, and ``sources`` are the ones it solved with.  The order n-1
    rates are the chain's own :meth:`ChainContext.rates` against the
    snapshot before (None at order 0 and on a cold start), and the imposed
    Bperp . nu is the chain's own :func:`bperp_normal_trace` of them.  The
    Ez and Eperp problems are posed again by the chain's own builders, and
    each entry starts with the method and relative residual of those three
    3D solves (``Ez_``, ``Eperp_x_`` and ``Eperp_y_relative_residual``).
    """
    latest = history.latest
    if latest is None:
        raise ValueError("history holds no snapshots")
    pair = history.pair()
    mesh, beta = latest.mesh, latest.beta
    solver = HierarchySolver(mesh, beta)
    ctx = ChainContext(sources=sources, previous=None if pair is None else pair[0],
                       time=latest.time, orders=list(latest.orders))
    audit = {}
    for o in latest.orders:
        entry = audit[o.n] = {}
        problems = [solver.ez_problem(o.n, ctx),
                    *solver.eperp_problems(o.n, o.Ecal, solver.gauss(o.n, o.Ez, ctx), ctx)]
        for name, u, problem in zip(("Ez", "Eperp_x", "Eperp_y"),
                                    (o.Ez.values, o.Eperp.x, o.Eperp.y), problems):
            for key, value in solver.solve_info(u, problem).items():
                entry[f"{name}_{key}"] = value
        del problems

        rates = ctx.rates(o.n - 1)
        if rates is None:
            circ = flux = bz_rhs = dt_Bz_max = 0.0
        else:
            int_dBz = mesh.integrate_2d(rates.Bz.values)  # int dBz^{n-1}/dt per slice
            circ, flux, bz_rhs = -int_dBz, int_dBz / beta, -int_dBz / beta
            dt_Bz_max = float(np.abs(rates.Bz.values).max())

        # Green's theorem on the Ecal curl source -dBz'/dt; an O(h^2) gap is
        # the expected discretization level, only gross violations are loud
        circ_worst = float(np.max(np.abs(circulation(o.Ecal) - circ)))
        if circ_worst > 0.02 * (1.0 + dt_Bz_max * mesh.a * mesh.b):
            log.warning("order %d pseudo-field circulation mismatch %.3e", o.n, circ_worst)
        # achieved against imposed Bperp . nu, a discretization error
        bperp_nu = bperp_normal_trace(rates, beta, mesh)
        achieved = boundary_normal_trace(o.Bperp)
        gap = max(np.abs(achieved[f] - bperp_nu[f]).max() for f in FACE_ORDER)
        scale = 1.0 + max(np.abs(bperp_nu[f]).max() for f in FACE_ORDER)
        div_E, div_B = div_perp(o.Eperp).values, div_perp(o.Bperp).values
        consist_x = o.Ecal.x - (o.Eperp.x - beta * o.Bperp.y)
        consist_y = o.Ecal.y - (o.Eperp.y + beta * o.Bperp.x)
        entry.update({
            "circulation_mismatch_max": circ_worst,
            # the divergence theorem on the Bperp solve, as the circulation of
            # the rotated field W = Bperp x e_z that it solves for
            "flux_mismatch_max": float(np.max(np.abs(circulation(cross_ez(o.Bperp)) - flux))),
            "bperp_trace_defect": float(gap / scale),
            # d/dzeta int Bz = -(1/beta) int dBz^{n-1}/dt
            "bz_integral_residual": float(np.abs(mesh.integrate_2d(div_B) - bz_rhs).max()),
            "gauss_residual": norms(div_E - dzeta(o.Ez).values - ctx.rho(o.n), mesh),
            "solenoidal_residual": norms(div_B - dzeta(o.Bz).values, mesh),
            "pseudo_field_consistency": norms(np.hypot(consist_x, consist_y), mesh),
        })
    return audit


# -- scaled-Maxwell residuals ---------------------------------------------------

@dataclass
class ResidualReport:
    eta: float
    n_max: int
    beta: float
    grid: tuple[int, int, int]
    norms: dict[str, dict[str, float]]
    metadata: dict = dc_field(default_factory=dict)

    def norm(self, equation: str, kind: str = "l2") -> float:
        return self.norms[equation][kind]

    def eta_dependent_norm(self, kind: str = "l2") -> float:
        return sum(self.norms[eq][kind] for eq in ETA_DEPENDENT_EQUATIONS)


# every norm reads the nodes two rows in from each face, so that one-sided
# stencil rows never enter it
_INTERIOR = (slice(2, -2),) * 3


def _interior(values: np.ndarray) -> np.ndarray:
    return values[_INTERIOR].copy()


@dataclass(frozen=True)
class OrderTerms:
    """Residual pieces of one expansion order on the nodes two rows in from
    each face (``_INTERIOR``), keyed by equation component
    (``ampere_perp_x``, ``ampere_perp_y``, ``ampere_zeta``, ``gauss``,
    ``faraday_perp_x``, ``faraday_perp_y``, ``faraday_zeta``, ``monopole``).

    ``spatial`` (the zeta and transverse derivative terms) enters the
    residual as is, ``rate`` (the d/dt terms) times eta; a component missing
    from ``rate`` has no d/dt term.
    """

    spatial: dict[str, np.ndarray]
    rate: dict[str, np.ndarray]


@dataclass(frozen=True)
class ResidualTerms:
    """The scaled-Maxwell residual of the last snapshot pair, split by order.

    The reconstruction sum_n eta^n F_n is linear in each order, so the
    residual at any (eta, n_max) is
    ``sum_{n <= n_max} eta^n (spatial_n + eta rate_n)``.  The sources belong
    to order 0, as in the chain: rho sits in its spatial part (Gauss) and J
    in its rate part (Ampere, which carries eta J).  ``n_max`` is the latest
    snapshot's highest order, the default truncation.
    """

    mesh: Mesh
    beta: float
    n_max: int
    orders: list[OrderTerms]
    cold_start: bool


def _spatial_terms(o, beta: float) -> dict[str, np.ndarray]:
    """Derivative terms of the six equations for one order's fields."""
    kappa = 1.0 - beta**2
    Ecal, Ep, Ez, Bz = o.Ecal, o.Eperp, o.Ez, o.Bz
    mix = VectorField2(Ecal.mesh, Ecal.x - kappa * Ep.x, Ecal.y - kappa * Ep.y)
    out = {"ampere_zeta": _interior(div_perp(mix).values / beta)}
    dz_mix, curl_Bz = dzeta(mix), curl_perp_scalar(Bz)
    out["ampere_perp_x"] = _interior(dz_mix.x / beta - curl_Bz.x)
    out["ampere_perp_y"] = _interior(dz_mix.y / beta - curl_Bz.y)
    del mix, dz_mix, curl_Bz  # one group of full-grid temporaries at a time
    dz_ecal_rot, curl_Ez = dzeta(cross_ez(Ecal)), curl_perp_scalar(Ez)
    out["faraday_perp_x"] = _interior(dz_ecal_rot.x + curl_Ez.x)
    out["faraday_perp_y"] = _interior(dz_ecal_rot.y + curl_Ez.y)
    del dz_ecal_rot, curl_Ez
    out["faraday_zeta"] = _interior(curl_perp_vector(Ecal).values)
    out["gauss"] = _interior(div_perp(Ep).values - dzeta(Ez).values)
    out["monopole"] = _interior(div_perp(o.Bperp).values - dzeta(Bz).values)
    return out


def _rate_terms(now, before, dt: float) -> dict[str, np.ndarray]:
    r = backward_rate(now, before, dt)
    return {
        "ampere_perp_x": _interior(r.Eperp.x),
        "ampere_perp_y": _interior(r.Eperp.y),
        "ampere_zeta": _interior(r.Ez.values),
        "faraday_perp_x": _interior(r.Bperp.x),
        "faraday_perp_y": _interior(r.Bperp.y),
        "faraday_zeta": _interior(r.Bz.values),
    }


def residual_terms(history: FieldHistory, sources: SourceTerms) -> ResidualTerms:
    """Per-order residual pieces of the last two snapshots in ``history``.

    For each order that both snapshots hold, the spatial part of each
    equation and that order's :func:`backward_rate` (the quotient the
    hierarchy sources use) are formed once; on a cold start (a single
    snapshot) every order of it is kept and the rates are zero.
    ``sources`` are those at the latest snapshot's time.
    """
    latest = history.latest
    if latest is None:
        raise ValueError("history holds no snapshots")
    pair = history.pair()
    held = latest.n_max if pair is None else min(latest.n_max, pair[0].n_max)
    orders = []
    for n in range(held + 1):
        now = latest.order(n)
        rate = {} if pair is None else _rate_terms(now, pair[0].order(n), pair[2])
        orders.append(OrderTerms(spatial=_spatial_terms(now, latest.beta), rate=rate))
    # the sources belong to order 0: rho to Gauss, eta J to Ampere
    spatial0, rate0 = orders[0].spatial, orders[0].rate
    spatial0["gauss"] -= _interior(sources.rho.values)
    for name, j in (("ampere_perp_x", sources.Jperp.x), ("ampere_perp_y", sources.Jperp.y),
                    ("ampere_zeta", -sources.Jzeta.values)):
        rate0[name] = rate0.get(name, 0.0) + _interior(j)
    return ResidualTerms(mesh=latest.mesh, beta=latest.beta, n_max=latest.n_max,
                         orders=orders, cold_start=pair is None)


def maxwell_residual(
    terms: ResidualTerms,
    eta: float,
    n_max: int | None = None,
) -> ResidualReport:
    """Substitute the eta-weighted reconstruction to order ``n_max`` into the
    six scaled Maxwell equations and report interior norms per equation.

    The residual is the per-order sum of :class:`ResidualTerms`, with the
    time derivative the backward difference of the last two snapshots (zero
    on a cold start).  ``n_max`` defaults to the latest snapshot's order and
    must be held by both snapshots of the pair.
    """
    n_max = terms.n_max if n_max is None else n_max
    if not 0 <= n_max < len(terms.orders):
        raise ValueError(f"the snapshot pair holds orders 0..{len(terms.orders) - 1} "
                         f"in both; order {n_max} is missing")
    total: dict[str, np.ndarray] = {}
    for n in range(n_max + 1):
        part = terms.orders[n]
        for w, arrays in ((eta**n, part.spatial), (eta ** (n + 1), part.rate)):
            for name, a in arrays.items():
                total[name] = total[name] + w * a if name in total else w * a

    mesh = terms.mesh
    w = mesh.dual_volume_3d[_INTERIOR]
    eq_norms = {
        "ampere_perp": weighted_norms(np.hypot(total["ampere_perp_x"], total["ampere_perp_y"]), w),
        "ampere_zeta": weighted_norms(total["ampere_zeta"], w),
        "gauss": weighted_norms(total["gauss"], w),
        "faraday_perp": weighted_norms(np.hypot(total["faraday_perp_x"], total["faraday_perp_y"]), w),
        "faraday_zeta": weighted_norms(total["faraday_zeta"], w),
        "monopole": weighted_norms(total["monopole"], w),
    }
    return ResidualReport(
        eta=eta, n_max=n_max, beta=terms.beta,
        grid=(mesh.nx, mesh.ny, mesh.nzeta), norms=eq_norms,
        metadata={"cold_start": terms.cold_start},
    )


# -- convergence machinery -------------------------------------------------------

@dataclass
class ConvergenceReport:
    parameters: list[float]
    errors: list[float]
    slope: float
    target_order: float | None = None
    label: str = ""
    passed: bool | None = dc_field(init=False)  # slope >= target_order, if one is set

    def __post_init__(self):
        self.passed = None if self.target_order is None else self.slope >= self.target_order


class DegenerateFitError(ValueError):
    pass


def convergence_study(
    parameters,
    errors,
    target_order: float | None = None,
    label: str = "",
) -> ConvergenceReport:
    """Least-squares slope of log error vs log parameter."""
    parameters = [float(p) for p in parameters]
    errors = [float(e) for e in errors]
    if len(parameters) < 3:
        raise ValueError("need at least 3 parameter values")
    diffs = np.diff(parameters)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("parameter sequence must be monotone")
    if any(e <= 0 for e in errors):
        raise DegenerateFitError("non-positive errors give a degenerate log fit")
    slope = float(np.polyfit(np.log(parameters), np.log(errors), 1)[0])
    return ConvergenceReport(parameters, errors, slope, target_order, label)


def richardson_combine(coarse: float, fine: float) -> float:
    """Extrapolate away the O(h^2) part of two norms on grids h and h/2."""
    return (4.0 * fine - coarse) / 3.0


def eta_scaling_study(etas, n_max: int, coarse: ResidualTerms, fine: ResidualTerms):
    """Richardson-corrected eta slope of the scaled-Maxwell residual.

    ``coarse`` and ``fine`` are the residual terms of one timeline on two
    grids, the fine one with half the spacing (:func:`eta_study_terms`).
    The L2 norms of the eta-dependent equations at each eta are summed per
    grid, Richardson-extrapolated across the two grids, floored at 1e-15,
    and fitted against eta.
    """
    etas = sorted(float(e) for e in etas)
    rc = [maxwell_residual(coarse, eta, n_max).eta_dependent_norm() for eta in etas]
    rf = [maxwell_residual(fine, eta, n_max).eta_dependent_norm() for eta in etas]
    corrected = [max(richardson_combine(c, f), 1e-15) for c, f in zip(rc, rf)]
    report = convergence_study(etas, corrected, target_order=n_max + 0.8,
                               label=f"eta-scaling n_max={n_max}")
    return report, {"coarse": rc, "fine": rf, "corrected": corrected, "etas": etas}


# canonical knobs for the eta-scaling family: strong quadratic drive gives a
# clean order-2 signal over eta in [0.05, 0.2] at the 64^2 x 32 / 32^2 x 16
# grid pair
ETA_STUDY_KNOBS = dict(amplitude=1.0, alpha=0.2, alpha2=6.0, jc=0.0, bz_external=0.4)
ETA_STUDY_DT = 0.05


def solve_timeline(case: QuasiStaticMode, n_max: int, n_steps: int,
                   residual_only: bool = False):
    """Solve snapshot k = 0 .. n_steps - 1 of ``case`` at t = k ``dt_hist``
    to order ``n_max``, yielding the history after each snapshot (its
    ``latest`` is snapshot k; it keeps only the last two).

    With ``residual_only``, snapshot k is solved only to the order the
    residual of the last two reads: order n at one snapshot reads only order
    n-1 of the one before, so each step back from the last pair drops one.
    """
    solver = HierarchySolver(case.mesh, case.beta, external=ExternalField(bz=case.bz_external))
    hist = FieldHistory()
    for k in range(n_steps):
        t = k * case.dt_hist
        order = max(0, n_max - max(0, n_steps - 2 - k)) if residual_only else n_max
        hist.push(solver.solve_hierarchy(order, case.sources(t), hist, time=t))
        yield hist


def eta_study_terms(beta: float, grid) -> ResidualTerms:
    """Residual terms of the canonical eta-study timeline on ``grid``
    ((nx, ny, nzeta) node counts over the 1 x 1 x 2 box): three snapshots
    solved to orders 0, 1, 1, which is all the residual of orders 0 and 1
    of the last two reads."""
    nx, ny, nz = grid
    mesh = build_mesh(1.0, 1.0, 2.0, nx, ny, nz)
    case = QuasiStaticMode(mesh=mesh, beta=beta, dt_hist=ETA_STUDY_DT, **ETA_STUDY_KNOBS)
    *_, hist = solve_timeline(case, 1, 3, residual_only=True)
    return residual_terms(hist, case.sources(hist.latest.time))
