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
    norms,
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

    def rate(self, t: float) -> float:
        return self.alpha + 2.0 * self.alpha2 * t

    def backward_rate(self, t: float, dt: float) -> float:
        """Backward-difference rate (growth(t) - growth(t-dt)) / dt."""
        return self.alpha + 2.0 * self.alpha2 * t - self.alpha2 * dt

    def source_rate(self, t: float) -> float:
        """Rate entering Jzeta: the scheme's backward difference when dt_hist
        is set (discrete charge conservation), the true rate otherwise."""
        return self.backward_rate(t, self.dt_hist) if self.dt_hist > 0 else self.rate(t)

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

    def _coeffs(self, r_inst: float | None = None, r_back: float | None = None):
        """Mode coefficients.  Order-1 entries distinguish the instantaneous
        source rate (enters through Jzeta) from the backward-difference rate
        driving the d/dt terms; they coincide for a linear profile."""
        kx, ky, kz = self._wavenumbers()
        kap, b, R0 = self.kappa, self.beta, self.amplitude
        ri = self.alpha if r_inst is None else r_inst
        rb = self.alpha if r_back is None else r_back
        Kperp = kx**2 + ky**2
        K = Kperp + kap * kz**2
        A = -kap * R0 * kz / K
        P = -kap * R0 / K
        Xc = -R0 / K
        G = R0 * Kperp / K
        A1 = -b * (rb * (A * kz + G) + ri * R0) / K
        D1 = -kap * A1 * kz - ri * b * R0 / kz - rb * b * A
        P1 = -D1 / Kperp
        Rg = -A1 * kz - kz**2 * P1 - rb * b * Xc * kz
        Rc = -b * self.jc * kz
        C1 = rb * A + ri * R0 / kz - b * A1 * kz
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
        Jz = -self.source_rate(t) * R0 * sx * sy * S / kz
        Jx = self.jc * (-ky * cx * sy) * C
        Jy = self.jc * (kx * sx * cy) * C
        return SourceTerms(
            rho=ScalarField(m, rho),
            Jperp=VectorField2(m, Jx, Jy),
            Jzeta=ScalarField(m, Jz),
        )

    def exact_order(self, n: int, t: float = 0.0, dt_hist: float | None = None) -> dict:
        """Closed-form fields of order n (0 or 1) at time t.

        For n = 1 with a quadratic time profile, ``dt_hist`` must give the
        snapshot spacing: the discrete chain drives order 1 with the
        backward-difference rate of the order-0 fields.
        """
        m = self.mesh
        sx, cx, sy, cy, C, S = self._shapes()
        if n == 1:
            dt_hist = dt_hist if dt_hist is not None else (self.dt_hist or None)
            if self.alpha2 != 0.0 and dt_hist is None:
                raise ValueError("quadratic profile: order-1 forms need dt_hist")
            rb = self.rate(t) if dt_hist is None else self.backward_rate(t, dt_hist)
            c = self._coeffs(r_inst=self.source_rate(t), r_back=rb)
        else:
            c = self._coeffs()
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


def maxwell_residual(
    history: FieldHistory,
    eta: float,
    sources: SourceTerms,
    n_max: int | None = None,
) -> ResidualReport:
    """Substitute the eta-weighted reconstruction into the six scaled
    Maxwell equations and report interior norms per equation.

    The time derivative is :func:`backward_rate` of the reconstructions of
    the last two snapshots, the quotient the hierarchy sources use; on a cold
    start (single snapshot) it is zero.
    """
    latest = history.latest
    if latest is None:
        raise ValueError("history holds no snapshots")
    n_max = latest.n_max if n_max is None else n_max
    mesh, beta = latest.mesh, latest.beta
    kappa = 1.0 - beta**2
    now = latest.reconstruct(eta, n_max)

    pair = history.pair()
    if pair is None:
        rate = backward_rate(now, None, 0.0)
    else:
        prev, _, dt = pair
        rate = backward_rate(now, prev.reconstruct(eta, n_max), dt)

    Ecal, Ep, Bp, Ez, Bz = now.Ecal, now.Eperp, now.Bperp, now.Ez, now.Bz
    mix = VectorField2(mesh, Ecal.x - kappa * Ep.x, Ecal.y - kappa * Ep.y)

    curl_Bz = curl_perp_scalar(Bz)
    amp_perp_x = eta * rate.Eperp.x + dzeta(mix).x / beta - curl_Bz.x + eta * sources.Jperp.x
    amp_perp_y = eta * rate.Eperp.y + dzeta(mix).y / beta - curl_Bz.y + eta * sources.Jperp.y
    amp_zeta = eta * rate.Ez.values + div_perp(mix).values / beta - eta * sources.Jzeta.values
    gauss = div_perp(Ep).values - dzeta(Ez).values - sources.rho.values
    ecal_rot = cross_ez(Ecal)
    curl_Ez = curl_perp_scalar(Ez)
    far_perp_x = eta * rate.Bperp.x + dzeta(ecal_rot).x + curl_Ez.x
    far_perp_y = eta * rate.Bperp.y + dzeta(ecal_rot).y + curl_Ez.y
    far_zeta = eta * rate.Bz.values + curl_perp_vector(Ecal).values
    mono = div_perp(Bp).values - dzeta(Bz).values

    # two-row collar keeps one-sided stencil rows out of the norms
    eq_norms = {
        "ampere_perp": norms(np.hypot(amp_perp_x, amp_perp_y), mesh, collar=2),
        "ampere_zeta": norms(amp_zeta, mesh, collar=2),
        "gauss": norms(gauss, mesh, collar=2),
        "faraday_perp": norms(np.hypot(far_perp_x, far_perp_y), mesh, collar=2),
        "faraday_zeta": norms(far_zeta, mesh, collar=2),
        "monopole": norms(mono, mesh, collar=2),
    }
    return ResidualReport(
        eta=eta, n_max=n_max, beta=beta,
        grid=(mesh.nx, mesh.ny, mesh.nzeta), norms=eq_norms,
        metadata={"cold_start": pair is None},
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


def standard_eta_runner(beta: float = 0.5, zlen: float = 2.0, n_steps: int = 3):
    """make_runner factory for :func:`eta_scaling_study` on the canonical
    quasi-static family; grid is (nx, ny, nzeta) node counts."""
    from .hierarchy import ExternalField, FieldHistory, HierarchySolver
    from .mesh import build_mesh

    def make_runner(grid):
        nx, ny, nz = grid
        mesh = build_mesh(1.0, 1.0, zlen, nx, ny, nz)
        dt = ETA_STUDY_DT
        case = QuasiStaticMode(mesh=mesh, beta=beta, dt_hist=dt, **ETA_STUDY_KNOBS)
        solver = HierarchySolver(mesh, beta, external=ExternalField(bz=ETA_STUDY_KNOBS["bz_external"]))
        hist = FieldHistory()
        t = 0.0
        for k in range(n_steps):
            t = k * dt
            hist.push(solver.solve_hierarchy(1, case.sources(t), hist, time=t))
        t_final = t

        def runner(eta, n_max):
            return maxwell_residual(hist, eta, case.sources(t_final), n_max=n_max)

        return runner

    return make_runner
