"""Per-order quasi-static field chain Ez -> Ecal -> Eperp -> Bperp -> Bz.

Each order n is closed given the sources (rho, J), the completed lower
orders, and backward-difference time derivatives anchored at the current
solve time against the latest snapshot.  The chain per order, in
dimensionless beam-frame variables:

  Ez^n    : (lap_perp + (1-b^2) dzz) Ez = d/dt(b dEz'/dz + curl Bperp')
                                          - d/dz(b Jz' + (1-b^2) rho),
            Ez = 0 on Gamma (primes denote order n-1 quantities)
  Ecal^n  : per-slice div-curl; curl = -dBz'/dt,
            div = (1-b^2)(dEz/dz + rho) + b (Jz' - dEz'/dt),
            tangential trace b*(Bperp^n . nu), the normal trace the Bperp
            stage imposes; circulation checked a posteriori
  Eperp^n : componentwise (lap_perp + (1-b^2) dzz) solve of the rewritten
            curl-curl system; E.tau = 0 on Gamma, normal component closed by
            the Gauss constraint div Eperp = dEz/dz + rho on Gamma
  Bperp^n : per-slice div-curl, rotated onto the tangential-data solver via
            A x e_z identities; normal trace integrated in zeta from the
            zeta=0 plane data (external field at order 0, zero above)
  Bz^n    : trapezoid zeta-integration of div Bperp from the zeta=0 plane

Zeta-end closures alternate with order parity (even orders: Dirichlet for
Ez, Neumann for Eperp; odd orders swapped), which is the unique assignment
compatible with the Gauss constraint for globally supported sources; see the
module tests for the single-mode verification family that pins this down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

from .elliptic import (
    DIRICHLET,
    NEUMANN,
    BoundarySpec,
    FaceBC,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
)
from .fields import ScalarField, VectorField2, same_mesh
from .mesh import FACE_ORDER, Mesh
from .operators import (
    boundary_normal_trace,
    cumint_zeta,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    dzeta2,
    grad_perp,
    norms,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExternalField:
    """External magnetic field data at the zeta = 0 plane: B = B^e there."""

    bz: float = 0.0                     # uniform longitudinal component
    bperp: tuple[float, float] = (0.0, 0.0)  # uniform transverse component

    def bperp_nu_trace(self, mesh: Mesh) -> dict[str, np.ndarray]:
        tr = {}
        from .mesh import FACE_NORMALS

        for f in FACE_ORDER:
            nx_, ny_ = FACE_NORMALS[f]
            n = len(mesh.face_nodes(f)[0])
            tr[f] = np.full(n, nx_ * self.bperp[0] + ny_ * self.bperp[1])
        return tr


@dataclass(frozen=True)
class SourceTerms:
    """Dimensionless charge/current moments on the mesh for one order."""

    rho: ScalarField
    Jperp: VectorField2
    Jzeta: ScalarField

    @classmethod
    def zeros(cls, mesh: Mesh) -> "SourceTerms":
        return cls(ScalarField.zeros(mesh), VectorField2.zeros(mesh), ScalarField.zeros(mesh))


@dataclass
class FieldOrder:
    """Complete dimensionless field set of one expansion order."""

    n: int
    Ez: ScalarField
    Ecal: VectorField2
    Eperp: VectorField2
    Bperp: VectorField2
    Bz: ScalarField
    diagnostics: dict = dc_field(default_factory=dict)

    def freeze(self):
        for arr in (self.Ez.values, self.Ecal.x, self.Ecal.y, self.Eperp.x,
                    self.Eperp.y, self.Bperp.x, self.Bperp.y, self.Bz.values):
            arr.flags.writeable = False
        return self


@dataclass(frozen=True)
class FieldRates:
    """Backward-difference time derivatives of one order's Ez, Bz, Eperp, Bperp."""

    Ez: ScalarField
    Bz: ScalarField
    Eperp: VectorField2
    Bperp: VectorField2

    @classmethod
    def zeros(cls, mesh: Mesh) -> "FieldRates":
        return cls(ScalarField.zeros(mesh), ScalarField.zeros(mesh),
                   VectorField2.zeros(mesh), VectorField2.zeros(mesh))


def backward_rate(now: FieldOrder, before: FieldOrder | None, dt: float) -> FieldRates:
    """(now - before) / dt for Ez, Bz, Eperp and Bperp; zeros on a cold start
    (``before`` is None).

    This is the one difference quotient of the program: the chain applies it
    to the completed order n-1 against the latest snapshot, the residual
    harness to the eta-weighted reconstructions of the last two snapshots.
    """
    mesh = now.Ez.mesh
    if before is None:
        return FieldRates.zeros(mesh)
    if dt <= 0:
        raise ValueError("solve time must exceed the latest snapshot time")

    def vec(a: VectorField2, b: VectorField2) -> VectorField2:
        return VectorField2(mesh, (a.x - b.x) / dt, (a.y - b.y) / dt)

    return FieldRates(
        Ez=ScalarField(mesh, (now.Ez.values - before.Ez.values) / dt),
        Bz=ScalarField(mesh, (now.Bz.values - before.Bz.values) / dt),
        Eperp=vec(now.Eperp, before.Eperp),
        Bperp=vec(now.Bperp, before.Bperp),
    )


@dataclass
class FieldHierarchy:
    mesh: Mesh
    beta: float
    orders: list[FieldOrder]
    external: ExternalField
    time: float = 0.0

    def order(self, n: int) -> FieldOrder:
        if not 0 <= n <= self.n_max:
            raise ValueError(
                f"snapshot at t={self.time:g} holds orders 0..{self.n_max}; "
                f"order {n} is missing"
            )
        return self.orders[n]

    @property
    def n_max(self) -> int:
        return len(self.orders) - 1

    def reconstruct(self, eta: float, n_max: int | None = None) -> FieldOrder:
        """Total fields as eta-weighted sums over orders 0..n_max."""
        n_max = self.n_max if n_max is None else n_max
        mesh = self.mesh
        Ez = np.zeros((mesh.nzeta, mesh.ny, mesh.nx))
        Bz = np.zeros_like(Ez)
        Ex, Ey = np.zeros_like(Ez), np.zeros_like(Ez)
        Bx, By = np.zeros_like(Ez), np.zeros_like(Ez)
        Cx, Cy = np.zeros_like(Ez), np.zeros_like(Ez)
        for n in range(n_max + 1):
            o = self.order(n)
            w = eta**n
            Ez += w * o.Ez.values
            Bz += w * o.Bz.values
            Ex += w * o.Eperp.x
            Ey += w * o.Eperp.y
            Bx += w * o.Bperp.x
            By += w * o.Bperp.y
            Cx += w * o.Ecal.x
            Cy += w * o.Ecal.y
        return FieldOrder(
            n=n_max,
            Ez=ScalarField(mesh, Ez),
            Ecal=VectorField2(mesh, Cx, Cy),
            Eperp=VectorField2(mesh, Ex, Ey),
            Bperp=VectorField2(mesh, Bx, By),
            Bz=ScalarField(mesh, Bz),
        )


class FieldHistory:
    """The last two hierarchy snapshots, backing the d/dt source terms.

    The chain differences its own current fields against the latest
    snapshot, so one stored snapshot already activates the d/dt sources;
    the residual harness differences the latest two.  An empty history is a
    cold start (all time derivatives zero).
    """

    def __init__(self):
        self.snapshots: list[FieldHierarchy] = []

    def push(self, h: FieldHierarchy):
        if self.snapshots and h.time <= self.snapshots[-1].time:
            raise ValueError("snapshot times must be strictly increasing")
        self.snapshots = self.snapshots[-1:] + [h]

    @property
    def latest(self) -> FieldHierarchy | None:
        return self.snapshots[-1] if self.snapshots else None

    def pair(self):
        """(previous, latest, dt) or None when fewer than two snapshots exist."""
        if len(self.snapshots) < 2:
            return None
        prev, last = self.snapshots
        return prev, last, last.time - prev.time


def _zeta_bc(order_parity_even: bool, for_Ez: bool) -> tuple[str, str]:
    """Zeta-end boundary kinds; see module docstring for the parity rule."""
    dirichlet_ends = for_Ez == order_parity_even
    kind = DIRICHLET if dirichlet_ends else NEUMANN
    return kind, kind


def _order_or_none(history_or_list, n: int):
    return history_or_list[n] if 0 <= n < len(history_or_list) else None


class HierarchySolver:
    """Builds a FieldHierarchy order by order for fixed sources and history."""

    def __init__(self, mesh: Mesh, beta: float, external: ExternalField | None = None):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        self.mesh = mesh
        self.beta = beta
        self.kappa = 1.0 - beta**2
        self.external = external or ExternalField()

    # -- the five per-order solves ---------------------------------------------

    def solve_Ez_order(
        self,
        n: int,
        ctx: "ChainContext",
        info_out: dict | None = None,
    ) -> ScalarField:
        mesh, beta = self.mesh, self.beta
        src = ctx.sources[n]
        src_prev = _order_or_none(ctx.sources, n - 1)

        # d/dt (beta dEz^{n-1}/dzeta + curl Bperp^{n-1}), applied to the rates
        rates = ctx.rates(n - 1)
        dt_term = beta * dzeta(rates.Ez, high_order=True).values \
            + curl_perp_vector(rates.Bperp).values

        Jz_prev = src_prev.Jzeta.values if src_prev is not None else 0.0
        rhs = dt_term - dzeta(
            ScalarField(mesh, beta * Jz_prev + self.kappa * src.rho.values),
            high_order=True,
        ).values

        kind = _zeta_bc(n % 2 == 0, for_Ez=True)[0]
        bc = BoundarySpec.uniform(DIRICHLET, 0.0, volumetric=True) \
            .with_face("zeta_lo", FaceBC(kind, 0.0)) \
            .with_face("zeta_hi", FaceBC(kind, 0.0))
        return solve_anisotropic_poisson_3d(
            self.kappa, ScalarField(mesh, rhs), bc, info_out=info_out
        )

    def solve_Ecal_order(
        self,
        n: int,
        Ez_n: ScalarField,
        ctx: "ChainContext",
        bperp_nu_trace: dict[str, np.ndarray],
        diagnostics_out: dict | None = None,
    ) -> VectorField2:
        """Per-slice div-curl solve for the pseudo-field.

        ``bperp_nu_trace`` holds the imposed same-order Bperp . nu trace per
        face, shaped (nzeta, nface); the tangential data is beta times it.
        """
        mesh, beta = self.mesh, self.beta
        src = ctx.sources[n]
        src_prev = _order_or_none(ctx.sources, n - 1)
        rates = ctx.rates(n - 1)
        dt_Bz_prev, dt_Ez_prev = rates.Bz.values, rates.Ez.values
        Jz_prev = src_prev.Jzeta.values if src_prev is not None else 0.0

        curl_src = -dt_Bz_prev
        div_src = (
            self.kappa * (dzeta(Ez_n, high_order=True).values + src.rho.values)
            + beta * (Jz_prev - dt_Ez_prev)
        )

        diag = {} if diagnostics_out is not None else None
        A = solve_divcurl_2d(
            ScalarField(mesh, div_src),
            ScalarField(mesh, curl_src),
            {f: beta * bperp_nu_trace[f] for f in FACE_ORDER},
            -mesh.integrate_2d(dt_Bz_prev),
            diagnostics_out=diag,
            check_compatibility=False,
        )
        if diagnostics_out is not None:
            worst = float(np.max(diag["circulation_mismatch"]))
            diagnostics_out["circulation_mismatch_max"] = worst
            # an O(h^2) gap between requested and achieved circulation is the
            # expected discretization level; only gross violations are loud
            scale = 1.0 + float(np.abs(dt_Bz_prev).max()) * mesh.a * mesh.b
            if worst > 0.02 * scale:
                log.warning("order %d pseudo-field circulation mismatch %.3e", n, worst)
        return A

    def solve_Eperp_order(
        self,
        n: int,
        Ecal_n: VectorField2,
        Ez_n: ScalarField,
        ctx: "ChainContext",
        info_out: dict | None = None,
    ) -> VectorField2:
        mesh, beta = self.mesh, self.beta
        src = ctx.sources[n]
        src_prev = _order_or_none(ctx.sources, n - 1)

        gauss = dzeta(Ez_n, high_order=True).values + src.rho.values  # target div of Eperp
        gg = grad_perp(ScalarField(mesh, gauss), high_order=True)

        d2_Ecal = dzeta2(Ecal_n, high_order=True)
        rates = ctx.rates(n - 1)
        curl_dtBz = curl_perp_scalar(rates.Bz)
        dtE_prev = rates.Eperp
        Jx_prev = src_prev.Jperp.x if src_prev is not None else 0.0
        Jy_prev = src_prev.Jperp.y if src_prev is not None else 0.0
        dz_x = dzeta(ScalarField(mesh, dtE_prev.x + Jx_prev), high_order=True).values
        dz_y = dzeta(ScalarField(mesh, dtE_prev.y + Jy_prev), high_order=True).values

        # (lap + kappa dzz) Eperp = grad(gauss) + dzz Ecal + curl(dBz'/dt)
        #                           + beta dz(dEperp'/dt + Jperp')
        rhs_x = gg.x + d2_Ecal.x + curl_dtBz.x + beta * dz_x
        rhs_y = gg.y + d2_Ecal.y + curl_dtBz.y + beta * dz_y

        zk = _zeta_bc(n % 2 == 0, for_Ez=False)[0]
        # tangential components vanish on Gamma; the normal component takes
        # the Gauss constraint as a Neumann condition (dEx/dx = gauss there)
        bc_x = BoundarySpec({
            "x_lo": FaceBC(NEUMANN, -gauss[:, :, 0]),
            "x_hi": FaceBC(NEUMANN, gauss[:, :, -1]),
            "y_lo": FaceBC(DIRICHLET, 0.0),
            "y_hi": FaceBC(DIRICHLET, 0.0),
            "zeta_lo": FaceBC(zk, 0.0),
            "zeta_hi": FaceBC(zk, 0.0),
        })
        bc_y = BoundarySpec({
            "x_lo": FaceBC(DIRICHLET, 0.0),
            "x_hi": FaceBC(DIRICHLET, 0.0),
            "y_lo": FaceBC(NEUMANN, -gauss[:, 0, :]),
            "y_hi": FaceBC(NEUMANN, gauss[:, -1, :]),
            "zeta_lo": FaceBC(zk, 0.0),
            "zeta_hi": FaceBC(zk, 0.0),
        })
        ix, iy = ({}, {}) if info_out is not None else (None, None)
        Ex = solve_anisotropic_poisson_3d(
            self.kappa, ScalarField(mesh, rhs_x), bc_x, info_out=ix
        )
        Ey = solve_anisotropic_poisson_3d(
            self.kappa, ScalarField(mesh, rhs_y), bc_y, info_out=iy
        )
        if info_out is not None:
            info_out.update(x=ix, y=iy)
        return VectorField2(mesh, Ex.values, Ey.values)

    def solve_Bperp_order(
        self,
        n: int,
        Eperp_n: VectorField2,
        ctx: "ChainContext",
        bperp_nu_trace: dict[str, np.ndarray],
        diagnostics_out: dict | None = None,
    ) -> VectorField2:
        """Per-slice div-curl solve for Bperp with the imposed normal trace
        ``bperp_nu_trace`` (see :meth:`_bperp_normal_trace`)."""
        mesh, beta = self.mesh, self.beta
        src_prev = _order_or_none(ctx.sources, n - 1)
        rates = ctx.rates(n - 1)
        dt_Ez_prev, dt_Bz_prev = rates.Ez.values, rates.Bz.values
        Jz_prev = src_prev.Jzeta.values if src_prev is not None else 0.0

        curl_src = dt_Ez_prev + beta * div_perp(Eperp_n).values - Jz_prev
        div_src = -(curl_perp_vector(Eperp_n).values + dt_Bz_prev) / beta

        # rotate onto the tangential-data solver: W = Bperp x e_z has
        # div W = curl B, curl W = -div B, W.tau = -(B.nu)
        diag = {} if diagnostics_out is not None else None
        W = solve_divcurl_2d(
            ScalarField(mesh, curl_src),
            ScalarField(mesh, -div_src),
            {f: -bperp_nu_trace[f] for f in FACE_ORDER},
            mesh.integrate_2d(dt_Bz_prev) / beta,
            diagnostics_out=diag,
            check_compatibility=False,
        )
        B = VectorField2(mesh, -W.y, W.x)  # B = -(W x e_z)
        if diagnostics_out is not None:
            diagnostics_out["flux_mismatch_max"] = float(np.max(diag["circulation_mismatch"]))
            # achieved against imposed Bperp . nu, a discretization error
            achieved = boundary_normal_trace(B)
            gap = max(np.abs(achieved[f] - bperp_nu_trace[f]).max() for f in FACE_ORDER)
            scale = 1.0 + max(np.abs(bperp_nu_trace[f]).max() for f in FACE_ORDER)
            diagnostics_out["bperp_trace_defect"] = float(gap / scale)
        return B

    def _bperp_normal_trace(self, n: int, ctx) -> dict[str, np.ndarray]:
        """Bperp^n . nu on Gamma by zeta-integration of the boundary condition
        (dBperp^{n-1}/dt + beta dBperp^n/dzeta) . nu = 0 from the zeta=0 plane."""
        mesh = self.mesh
        dt_nu = boundary_normal_trace(ctx.rates(n - 1).Bperp)
        base = self.external.bperp_nu_trace(mesh) if n == 0 else {
            f: np.zeros(len(mesh.face_nodes(f)[0])) for f in FACE_ORDER
        }
        out = {}
        for f in FACE_ORDER:
            out[f] = cumint_zeta(-dt_nu[f] / self.beta, mesh, initial=base[f])
        return out

    def solve_Bz_order(
        self,
        n: int,
        Bperp_n: VectorField2,
        ctx: "ChainContext",
        diagnostics_out: dict | None = None,
    ) -> ScalarField:
        mesh = self.mesh
        divB = div_perp(Bperp_n).values
        init = np.full((mesh.ny, mesh.nx), self.external.bz) if n == 0 else 0.0
        Bz = ScalarField(mesh, cumint_zeta(divB, mesh, initial=init))
        if diagnostics_out is not None:
            # integral constraint: d/dzeta int Bz = -(1/beta) int dBz^{n-1}/dt
            dt_Bz_prev = ctx.rates(n - 1).Bz.values
            lhs = mesh.integrate_2d(divB)
            rhs = -mesh.integrate_2d(dt_Bz_prev) / self.beta
            diagnostics_out["bz_integral_residual"] = float(np.abs(lhs - rhs).max())
        return Bz

    # -- full chain --------------------------------------------------------------

    def solve_order(self, n: int, ctx: "ChainContext") -> FieldOrder:
        mesh = self.mesh
        diag: dict = {"order": n}
        ez_info: dict = {}
        eperp_info: dict = {}
        Ez = self.solve_Ez_order(n, ctx, info_out=ez_info)
        # the boundary condition fixes Bperp . nu from order n-1 data alone, so
        # the Ecal, Eperp and Bperp stages each run once
        nu = self._bperp_normal_trace(n, ctx)
        Ecal = self.solve_Ecal_order(n, Ez, ctx, nu, diagnostics_out=diag)
        Eperp = self.solve_Eperp_order(n, Ecal, Ez, ctx, info_out=eperp_info)
        Bperp = self.solve_Bperp_order(n, Eperp, ctx, nu, diagnostics_out=diag)
        # the scalar solves behind Ez and the Eperp components
        for name, info in (("Ez", ez_info), ("Eperp_x", eperp_info["x"]),
                           ("Eperp_y", eperp_info["y"])):
            diag[f"{name}_method"] = info["method"]
            diag[f"{name}_relative_residual"] = info["relative_residual"]

        order_stub = FieldOrder(n=n, Ez=Ez, Ecal=Ecal, Eperp=Eperp, Bperp=Bperp,
                                Bz=ScalarField.zeros(mesh), diagnostics=diag)
        ctx.orders.append(order_stub)
        Bz = self.solve_Bz_order(n, Bperp, ctx, diagnostics_out=diag)
        order_stub.Bz = Bz

        gauss = div_perp(Eperp).values - dzeta(Ez).values - ctx.sources[n].rho.values
        sol = div_perp(Bperp).values - dzeta(Bz).values
        consist_x = Ecal.x - (Eperp.x - self.beta * Bperp.y)
        consist_y = Ecal.y - (Eperp.y + self.beta * Bperp.x)
        diag["gauss_residual"] = norms(gauss, mesh)
        diag["solenoidal_residual"] = norms(sol, mesh)
        diag["pseudo_field_consistency"] = norms(np.hypot(consist_x, consist_y), mesh)
        return order_stub.freeze()

    def solve_hierarchy(
        self,
        n_max: int,
        sources: list[SourceTerms] | SourceTerms,
        history: FieldHistory | None = None,
        time: float = 0.0,
    ) -> FieldHierarchy:
        """Run the chain for orders 0..n_max and return the completed hierarchy.

        ``sources`` may be a single SourceTerms (assigned wholly to order 0,
        the particle-code convention) or a list per order.
        """
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        history = history or FieldHistory()
        if isinstance(sources, SourceTerms):
            sources = [sources] + [SourceTerms.zeros(self.mesh) for _ in range(n_max)]
        if len(sources) < n_max + 1:
            sources = list(sources) + [
                SourceTerms.zeros(self.mesh) for _ in range(n_max + 1 - len(sources))
            ]
        for s in sources:
            same_mesh(s.rho, s.Jperp, s.Jzeta)

        ctx = ChainContext(sources=list(sources), history=history, time=time, orders=[])
        for n in range(n_max + 1):
            self.solve_order(n, ctx)
        return FieldHierarchy(
            mesh=self.mesh, beta=self.beta, orders=ctx.orders,
            external=self.external, time=time,
        )


@dataclass
class ChainContext:
    """State threaded through one hierarchy solve: per-order sources, the
    snapshot history backing time derivatives, the solve time, and the
    orders completed so far at this time."""

    sources: list[SourceTerms]
    history: FieldHistory
    time: float
    orders: list[FieldOrder]
    _rates: dict[int, FieldRates] = dc_field(default_factory=dict, init=False, repr=False)

    def rates(self, n: int) -> FieldRates:
        """d/dt of the completed order n, anchored at the solve time against
        the latest snapshot: order n at this time is already on the chain
        when order n+1 is assembled, so one prior snapshot suffices, and the
        per-order equations hold with the quotient the residual harness uses.
        Formed once per order and shared by every stage; zeros below order 0
        and on a cold start."""
        if n not in self._rates:
            self._rates.clear()  # only the order below the current one is read
            latest = self.history.latest
            if n < 0 or latest is None:
                self._rates[n] = FieldRates.zeros(self.sources[0].rho.mesh)
            else:
                self._rates[n] = backward_rate(
                    self.orders[n], latest.order(n), self.time - latest.time
                )
        return self._rates[n]


def solve_hierarchy(
    mesh: Mesh,
    beta: float,
    n_max: int,
    sources,
    history: FieldHistory | None = None,
    external: ExternalField | None = None,
    time: float = 0.0,
) -> FieldHierarchy:
    """One-call front end over :class:`HierarchySolver`."""
    solver = HierarchySolver(mesh, beta, external=external)
    return solver.solve_hierarchy(n_max, sources, history, time=time)
