"""Verification harness: manufactured cases, scaled-Maxwell residuals,
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

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ScalarField, VectorField2
from .hierarchy import FieldHistory, SourceTerms, backward_rate
from .mesh import Mesh
from .operators import (
    cross_ez,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    weighted_norms,
)

ETA_DEPENDENT_EQUATIONS = ("ampere_perp", "ampere_zeta", "faraday_perp", "faraday_zeta")


# -- manufactured solutions ----------------------------------------------------

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
    m_zeta: int = 1
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
        return np.pi / m.a, np.pi / m.b, np.pi * self.m_zeta / m.zlen

    def _shapes(self):
        m = self.mesh
        X, Y, Z = m.grids3d()
        kx, ky, kz = self._wavenumbers()
        xt, yt = X - m.x0, Y - m.y0
        sx, cx = np.sin(kx * xt), np.cos(kx * xt)
        sy, cy = np.sin(ky * yt), np.cos(ky * yt)
        C, S = np.cos(kz * Z), np.sin(kz * Z)
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


def mms_case(case_id: str, mesh: Mesh, beta: float, **knobs):
    """Registry of manufactured cases.

    Solver-level cases return (rhs/source fields, exact fields); the
    "qs-mode-*" family returns a QuasiStaticMode driving the full chain.
    """
    X, Y, Z = mesh.grids3d()
    xt, yt = X - mesh.x0, Y - mesh.y0
    kx, ky = np.pi / mesh.a, np.pi / mesh.b
    if case_id == "zero":
        return {
            "rhs": ScalarField.zeros(mesh),
            "exact": ScalarField.zeros(mesh),
        }
    if case_id == "ez-mode-111":
        kz = np.pi / mesh.zlen
        kappa = 1.0 - beta**2
        u = np.sin(kx * xt) * np.sin(ky * yt) * np.sin(kz * Z)
        lam = kx**2 + ky**2 + kappa * kz**2
        return {
            "exact": ScalarField(mesh, u),
            "rhs": ScalarField(mesh, -lam * u),
            "kappa": kappa,
        }
    if case_id == "poisson-sine":
        u2 = np.sin(kx * xt[0]) * np.sin(ky * yt[0])
        return {
            "exact": ScalarField(mesh, u2),
            "rhs": ScalarField(mesh, -(kx**2 + ky**2) * u2),
        }
    if case_id == "divcurl-rot":
        xc = mesh.x0 + mesh.a / 2.0
        yc = mesh.y0 + mesh.b / 2.0
        A = VectorField2(mesh, -(Y[0] - yc), X[0] - xc)
        return {
            "exact": A,
            "div": ScalarField(mesh, np.zeros_like(X[0])),
            "curl": ScalarField(mesh, np.full_like(X[0], 2.0)),
            "circulation": 2.0 * mesh.a * mesh.b,
        }
    if case_id == "divcurl-grad":
        xc = mesh.x0 + mesh.a / 2.0
        yc = mesh.y0 + mesh.b / 2.0
        A = VectorField2(mesh, X[0] - xc, Y[0] - yc)
        return {
            "exact": A,
            "div": ScalarField(mesh, np.full_like(X[0], 2.0)),
            "curl": ScalarField(mesh, np.zeros_like(X[0])),
            "circulation": 0.0,
        }
    if case_id == "divcurl-mixed":
        # A = grad(sin sin) + curl(cos cos): both channels active, and the
        # nonzero corner curl exercises the polynomial peel-off
        sx, cx = np.sin(kx * xt[0]), np.cos(kx * xt[0])
        sy, cy = np.sin(ky * yt[0]), np.cos(ky * yt[0])
        Ax = kx * cx * sy - ky * cx * sy
        Ay = ky * sx * cy + kx * sx * cy
        return {
            "exact": VectorField2(mesh, Ax, Ay),
            "div": ScalarField(mesh, -(kx**2 + ky**2) * sx * sy),
            "curl": ScalarField(mesh, (kx**2 + ky**2) * cx * cy),
        }
    if case_id.startswith("qs-mode"):
        return QuasiStaticMode(mesh=mesh, beta=beta, **knobs)
    raise KeyError(f"unknown manufactured case {case_id!r}")


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

    def as_dict(self) -> dict:
        return {
            "eta": self.eta, "n_max": self.n_max, "beta": self.beta,
            "grid": list(self.grid), "norms": self.norms, "metadata": self.metadata,
        }


# every norm reads the nodes two rows in from each face, so that one-sided
# stencil rows never enter it
_INTERIOR = (slice(2, -2),) * 3


def _interior(values: np.ndarray) -> np.ndarray:
    return values[_INTERIOR].copy()


@dataclass(frozen=True)
class OrderTerms:
    """Residual pieces of one expansion order on the collar-2 interior, keyed
    by equation component (``ampere_perp_x``, ``ampere_perp_y``,
    ``ampere_zeta``, ``gauss``, ``faraday_perp_x``, ``faraday_perp_y``,
    ``faraday_zeta``, ``monopole``).

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

    @property
    def passed(self) -> bool | None:
        if self.target_order is None:
            return None
        return self.slope >= self.target_order

    def as_dict(self) -> dict:
        return {
            "label": self.label, "parameters": self.parameters,
            "errors": self.errors, "slope": self.slope,
            "target_order": self.target_order, "passed": self.passed,
        }


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


def richardson_combine(coarse: float, fine: float, order: int = 2, ratio: float = 2.0) -> float:
    """Extrapolate away the O(h^order) part of two norms on grids h, h/ratio."""
    w = ratio**order
    return (w * fine - coarse) / (w - 1.0)


def eta_scaling_study(
    beta: float,
    etas,
    n_max: int,
    grids,
    make_runner,
    kind: str = "l2",
):
    """Richardson-corrected eta slope of the scaled-Maxwell residual.

    ``make_runner(grid)`` must return a function (eta, n_max) -> ResidualReport
    for that grid; ``grids`` is (coarse, fine).  Residual norms of the
    eta-dependent equations are combined, Richardson-extrapolated across
    the two grids, floored at 1e-15, and fitted against eta.

    ``make_runner`` is called once per grid on every call, so a study of
    n_max 0 and 1 calls it once per n_max; a factory that keeps its runners
    per grid, as :func:`standard_eta_runner` does, solves each grid once, and
    each runner call is then a weighted sum of per-order residual terms.
    """
    etas = sorted(float(e) for e in etas)
    runner_c = make_runner(grids[0])
    runner_f = make_runner(grids[1])
    rc = [runner_c(eta, n_max).eta_dependent_norm(kind) for eta in etas]
    rf = [runner_f(eta, n_max).eta_dependent_norm(kind) for eta in etas]
    corrected = [max(richardson_combine(c, f), 1e-15) for c, f in zip(rc, rf)]
    report = convergence_study(etas, corrected, target_order=None,
                               label=f"eta-scaling n_max={n_max}")
    report.target_order = n_max + 0.8
    return report, {"coarse": rc, "fine": rf, "corrected": corrected, "etas": etas}


# canonical knobs for the eta-scaling family: strong quadratic drive gives a
# clean order-2 signal over eta in [0.05, 0.2] at the 64^2 x 32 / 32^2 x 16
# grid pair
ETA_STUDY_KNOBS = dict(amplitude=1.0, alpha=0.2, alpha2=6.0, jc=0.0, bz_external=0.4)
ETA_STUDY_DT = 0.05


def snapshot_order(top: int, n_steps: int, k: int) -> int:
    """The order snapshot k of n_steps must be solved to for a residual of
    order ``top`` over the last two: order n at one snapshot reads only order
    n-1 of the one before, so each step back from the last pair drops one."""
    return max(0, top - max(0, n_steps - 2 - k))


def standard_eta_runner(beta: float = 0.5, zlen: float = 2.0, n_steps: int = 3):
    """make_runner factory for :func:`eta_scaling_study` on the canonical
    quasi-static family; grid is (nx, ny, nzeta) node counts.

    Each grid's timeline is solved once per factory and reduced to its
    :func:`residual_terms` at once; the runners are kept per grid, so studies
    of n_max 0 and 1 that share a factory read the same terms.  Order n at
    one snapshot reads only order n-1 of the one before, and the residual
    reads orders 0 and 1 of the last two, so snapshot k is solved to
    :func:`snapshot_order` ``(1, n_steps, k)``: orders 0, 1, 1 for three.
    """
    from .hierarchy import ExternalField, HierarchySolver
    from .mesh import build_mesh

    top = 1  # the highest order the runners report

    @functools.cache
    def solved_runner(grid):
        nx, ny, nz = grid
        mesh = build_mesh(1.0, 1.0, zlen, nx, ny, nz)
        dt = ETA_STUDY_DT
        case = QuasiStaticMode(mesh=mesh, beta=beta, dt_hist=dt, **ETA_STUDY_KNOBS)
        solver = HierarchySolver(mesh, beta, external=ExternalField(bz=ETA_STUDY_KNOBS["bz_external"]))
        hist = FieldHistory()
        t = 0.0
        for k in range(n_steps):
            t = k * dt
            order = snapshot_order(top, n_steps, k)
            hist.push(solver.solve_hierarchy(order, case.sources(t), hist, time=t))
        terms = residual_terms(hist, case.sources(t))

        def runner(eta, n_max):
            return maxwell_residual(terms, eta, n_max=n_max)

        return runner

    def make_runner(grid):
        return solved_runner(tuple(grid))

    return make_runner
