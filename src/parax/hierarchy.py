"""Per-order quasi-static field chain Ez -> Ecal -> Eperp -> Bperp -> Bz.

``HierarchySolver.solve_hierarchy`` is the entry point: it runs the chain
for orders 0..n_max from one ``SourceTerms``, the snapshot before (None on
a cold start) and the solve time.  Order n takes two inputs as arguments:
the source terms it reads (:func:`order_sources`) and the backward-difference
time derivatives of the completed order n-1, anchored at the solve time
against the snapshot before (:func:`lower_rates`).

The sources belong to order 0: rho enters the order-0 chain and the current
J the order-1 chain (the primed Jz', Jperp' below); no higher order sees a
source term.  The external field is
a uniform Bz at the zeta = 0 plane, so Bperp . nu starts from zero there at
every order.  The chain per order, in dimensionless beam-frame variables:

  Ez^n    : (lap_perp + (1-b^2) dzz) Ez = d/dt(b dEz'/dz + curl Bperp')
                                          - d/dz(b Jz' + (1-b^2) rho),
            Ez = 0 on Gamma (primes denote order n-1 quantities)
  Ecal^n  : per-slice div-curl; curl = -dBz'/dt,
            div = (1-b^2)(dEz/dz + rho) + b (Jz' - dEz'/dt),
            tangential trace b*(Bperp^n . nu), the normal trace the Bperp
            stage imposes
  Eperp^n : componentwise (lap_perp + (1-b^2) dzz) solve of the rewritten
            curl-curl system; E.tau = 0 on Gamma, normal component closed by
            the Gauss constraint div Eperp = dEz/dz + rho on Gamma
  Bperp^n : per-slice div-curl, rotated onto the tangential-data solver via
            A x e_z identities; normal trace integrated in zeta from zero at
            the zeta=0 plane
  Bz^n    : trapezoid zeta-integration of div Bperp from the zeta=0 plane
            (the external Bz at order 0, zero above)

The stages only solve.  ``solve_order`` forms dEz/dz + rho, div Eperp and
div Bperp once each and passes them to the stages that read them.  The Ez
and Eperp stages pose their 3D problems through :meth:`HierarchySolver.ez_problem`
and :meth:`HierarchySolver.eperp_problems`; the a-posteriori checks of a
solved order, the 3D solves' relative residuals among them, are formed apart
from the chain by ``parax.verify.chain_audit``, which poses the same
problems again.

Zeta-end closures alternate with order parity (even orders: Dirichlet for
Ez, Neumann for Eperp; odd orders swapped), which is the unique assignment
compatible with the Gauss constraint for globally supported sources; see the
module tests for the single-mode verification family that pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .elliptic import (
    DIRICHLET,
    NEUMANN,
    BoundarySpec,
    FaceBC,
    _solve_info,
    _solve_scalar,
    solve_anisotropic_poisson_3d,
    solve_divcurl_2d,
)
from .fields import FieldShapeError, ScalarField, VectorField2, require_finite, same_mesh
from .mesh import FACE_NORMALS, FACE_ORDER, Mesh
from .operators import (
    boundary_normal_trace,
    cumint_zeta,
    curl_perp_scalar,
    curl_perp_vector,
    div_perp,
    dzeta,
    dzeta2,
    face_values,
    grad_perp,
)


@dataclass(frozen=True)
class ExternalField:
    """External magnetic field at the zeta = 0 plane: a uniform B^e = Bz e_z."""

    bz: float = 0.0


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

    def arrays(self) -> dict[str, np.ndarray]:
        """The order's eight arrays by name, in chain order."""
        return {"Ez": self.Ez.values, "Ecal.x": self.Ecal.x, "Ecal.y": self.Ecal.y,
                "Eperp.x": self.Eperp.x, "Eperp.y": self.Eperp.y,
                "Bperp.x": self.Bperp.x, "Bperp.y": self.Bperp.y, "Bz": self.Bz.values}

    def freeze(self):
        """Check the outputs in chain order, so that an error names the stage
        that made the first non-finite value, and make them read-only."""
        arrays = self.arrays()
        require_finite(f"order {self.n}", **arrays)
        for arr in arrays.values():
            arr.flags.writeable = False
        return self


@dataclass(frozen=True)
class FieldRates:
    """Backward-difference time derivatives of one order's Ez, Bz, Eperp, Bperp."""

    Ez: ScalarField
    Bz: ScalarField
    Eperp: VectorField2
    Bperp: VectorField2


def backward_rate(now: FieldOrder, before: FieldOrder, dt: float) -> FieldRates:
    """(now - before) / dt for Ez, Bz, Eperp and Bperp.

    The chain applies it to the completed order n-1 against the snapshot
    before, the residual harness to each order of a snapshot pair.
    """
    mesh = now.Ez.mesh
    if dt <= 0:
        raise ValueError("solve time must exceed the previous snapshot time")

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

    def reconstruct(self, eta: float, n_max: int) -> FieldOrder:
        """Total fields as eta-weighted sums over orders 0..n_max."""
        mesh = self.mesh
        total = np.zeros((8, mesh.nzeta, mesh.ny, mesh.nx))
        for n in range(n_max + 1):
            w = eta**n
            for t, a in zip(total, self.order(n).arrays().values()):
                t += w * a
        Ez, Cx, Cy, Ex, Ey, Bx, By, Bz = total
        return FieldOrder(n_max, ScalarField(mesh, Ez), VectorField2(mesh, Cx, Cy),
                          VectorField2(mesh, Ex, Ey), VectorField2(mesh, Bx, By),
                          ScalarField(mesh, Bz))


def _volume_spec(n: int, for_Ez: bool, transverse: dict[str, FaceBC]) -> BoundarySpec:
    """Boundary spec of the order-n Ez (``for_Ez``) or Eperp solve: the
    ``transverse`` faces as given, then both zeta ends by the parity rule of
    the module docstring."""
    end = FaceBC(DIRICHLET if for_Ez == (n % 2 == 0) else NEUMANN, 0.0)
    return BoundarySpec({**transverse, "zeta_lo": end, "zeta_hi": end})


def check_inputs(mesh: Mesh, beta: float, sources: SourceTerms,
                 previous: FieldHierarchy | None, time: float) -> None:
    """Refuse sources, or a snapshot before, that do not belong to a solve on
    ``mesh`` at ``beta`` and ``time``; the error names what differs."""
    if not isinstance(sources, SourceTerms):
        raise TypeError(f"sources must be one SourceTerms, got {type(sources).__name__}")

    def require_mesh(what: str, other: Mesh) -> None:
        differ = [f"{f.name} {getattr(other, f.name):g}, not {getattr(mesh, f.name):g}"
                  for f in dc_fields(Mesh) if getattr(other, f.name) != getattr(mesh, f.name)]
        if differ:
            raise FieldShapeError(f"mesh of the {what} differs: {'; '.join(differ)}")

    require_mesh("sources", same_mesh(sources.rho, sources.Jperp, sources.Jzeta))
    if previous is None:
        return
    require_mesh("snapshot before", previous.mesh)
    if previous.beta != beta:
        raise ValueError(f"beta of the snapshot before differs: {previous.beta:g}, not {beta:g}")
    if time <= previous.time:
        raise ValueError("snapshot times must be strictly increasing")


def order_sources(sources: SourceTerms, n: int):
    """(rho, (Jx, Jy, Jzeta)) that order n reads: the sources' rho at n == 0
    and their current, as the primed J' of order 0, at n == 1; scalar zeros
    everywhere else."""
    J = (sources.Jperp.x, sources.Jperp.y, sources.Jzeta.values) if n == 1 else (0.0,) * 3
    return (sources.rho.values if n == 0 else 0.0), J


def lower_rates(n: int, orders: list[FieldOrder], previous: FieldHierarchy | None,
                time: float) -> FieldRates | None:
    """d/dt of the completed order n-1, ``orders[n - 1]``, anchored at
    ``time`` against ``previous``: order n-1 at this time is already on the
    chain when order n is assembled, so one prior snapshot suffices, and the
    per-order equations hold with the quotient the residual harness uses.
    None at order 0 and on a cold start, where every time derivative is zero:
    the stages then form no d/dt terms."""
    if n == 0 or previous is None:
        return None
    return backward_rate(orders[n - 1], previous.order(n - 1), time - previous.time)


def bperp_normal_trace(rates: FieldRates | None, beta: float,
                       mesh: Mesh) -> dict[str, np.ndarray]:
    """Bperp^n . nu on Gamma per face, shaped (nzeta, nface), by zeta-integration
    of the boundary condition (dBperp^{n-1}/dt + beta dBperp^n/dzeta) . nu = 0
    from zero at the zeta=0 plane; ``rates`` are those of order n-1 (None: zero
    rates)."""
    if rates is None:
        return {f: np.zeros((mesh.nzeta, mesh.face_size(f))) for f in FACE_ORDER}
    dt_nu = boundary_normal_trace(rates.Bperp)
    return {f: cumint_zeta(-dt_nu[f] / beta, mesh) for f in FACE_ORDER}


class HierarchySolver:
    """Builds a FieldHierarchy order by order for fixed sources and the
    snapshot before."""

    def __init__(self, mesh: Mesh, beta: float, external: ExternalField | None = None):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        self.mesh = mesh
        self.beta = beta
        self.kappa = 1.0 - beta**2
        self.external = external or ExternalField()
        # the terms of lap_perp + kappa dzz over (nzeta, ny, nx)
        self._operator = (mesh.hzeta, mesh.hy, mesh.hx), (self.kappa, 1.0, 1.0)

    def solve_info(self, u: np.ndarray, problem) -> dict:
        """Method and relative residual of the 3D solution ``u`` of
        ``problem``, an (rhs, bc) pair of :meth:`ez_problem` or
        :meth:`eperp_problems`."""
        rhs, bc = problem
        return _solve_info(u, rhs, *self._operator, bc)

    # -- the five per-order solves ---------------------------------------------

    # each stage takes what it reads of the order's inputs: ``rho`` and ``J``
    # of :func:`order_sources` and ``rates`` of :func:`lower_rates`

    def ez_problem(self, n: int, rho, J, rates: FieldRates | None
                   ) -> tuple[np.ndarray, BoundarySpec]:
        """Right-hand side and boundary spec of the order-n Ez solve."""
        mesh, beta = self.mesh, self.beta

        source = beta * J[2] + self.kappa * rho  # 0.0 above order 1
        volume = np.broadcast_to(source, (mesh.nzeta, mesh.ny, mesh.nx))
        d_source = dzeta(ScalarField(mesh, volume), high_order=True).values
        # d/dt (beta dEz^{n-1}/dzeta + curl Bperp^{n-1}), applied to the rates;
        # without rates 0.0 - d_source keeps the zero signs a zero term gave
        dt_term = 0.0 if rates is None else (
            beta * dzeta(rates.Ez, high_order=True).values
            + curl_perp_vector(rates.Bperp).values
        )
        rhs = dt_term - d_source

        return rhs, _volume_spec(n, for_Ez=True,
                                 transverse=dict.fromkeys(FACE_ORDER, FaceBC(DIRICHLET, 0.0)))

    def solve_Ez_order(self, n: int, rho, J, rates: FieldRates | None) -> ScalarField:
        rhs, bc = self.ez_problem(n, rho, J, rates)
        return solve_anisotropic_poisson_3d(self.kappa, ScalarField(self.mesh, rhs), bc)

    def gauss(self, Ez_n: ScalarField, rho) -> np.ndarray:
        """dEz/dzeta + rho: the target div Eperp, which the Ecal and Eperp
        stages read."""
        return dzeta(Ez_n, high_order=True).values + rho

    def solve_Ecal_order(self, gauss: np.ndarray, J, rates: FieldRates | None,
                         bperp_nu: dict[str, np.ndarray]) -> VectorField2:
        """Per-slice div-curl solve for the pseudo-field.

        ``gauss`` is :meth:`gauss` of this order's Ez.  ``bperp_nu`` holds the
        imposed same-order Bperp . nu trace per face, shaped (nzeta, nface);
        the tangential data is beta times it.
        """
        mesh, beta = self.mesh, self.beta
        if rates is None:  # the curl source -dBz'/dt is zero
            dt_Ez_prev, curl_src = 0.0, None
        else:
            dt_Ez_prev = rates.Ez.values
            curl_src = ScalarField(mesh, -rates.Bz.values)

        div_src = self.kappa * gauss + beta * (J[2] - dt_Ez_prev)
        return solve_divcurl_2d(
            ScalarField(mesh, div_src),
            curl_src,
            {f: beta * bperp_nu[f] for f in FACE_ORDER},
        )

    def eperp_problems(self, n: int, Ecal_n: VectorField2, gauss: np.ndarray, J,
                       rates: FieldRates | None) -> list[tuple[np.ndarray, BoundarySpec]]:
        """Right-hand sides and boundary specs of the order-n Eperp x and y
        solves; ``gauss`` is :meth:`gauss` of this order's Ez."""
        mesh, beta = self.mesh, self.beta
        gg = grad_perp(ScalarField(mesh, gauss), high_order=True)

        d2_Ecal = dzeta2(Ecal_n)
        Jx_prev, Jy_prev, _ = J
        if rates is None:
            curl_x = curl_y = dtE_x = dtE_y = 0.0
        else:
            curl_dtBz = curl_perp_scalar(rates.Bz)
            curl_x, curl_y = curl_dtBz.x, curl_dtBz.y
            dtE_x, dtE_y = rates.Eperp.x, rates.Eperp.y
        if rates is None and np.ndim(Jx_prev) == 0:
            # no rate and no current: the dz term is zero; which of its zeros
            # are -0.0 does not matter, as the 3D solve reads no zero sign
            dz_x = dz_y = 0.0
        else:
            dz_x = dzeta(ScalarField(mesh, dtE_x + Jx_prev), high_order=True).values
            dz_y = dzeta(ScalarField(mesh, dtE_y + Jy_prev), high_order=True).values

        # (lap + kappa dzz) Eperp = grad(gauss) + dzz Ecal + curl(dBz'/dt)
        #                           + beta dz(dEperp'/dt + Jperp')
        rhs_x = gg.x + d2_Ecal.x + curl_x + beta * dz_x
        rhs_y = gg.y + d2_Ecal.y + curl_y + beta * dz_y

        def bc(c: int) -> BoundarySpec:
            # component c vanishes on the faces it is tangential to; on the two
            # it is normal to it takes the Gauss constraint as a Neumann
            # condition, its outward derivative nu_c * gauss
            return _volume_spec(n, for_Ez=False, transverse={
                f: FaceBC(NEUMANN, FACE_NORMALS[f][c] * face_values(gauss, f))
                if FACE_NORMALS[f][c] else FaceBC(DIRICHLET, 0.0) for f in FACE_ORDER
            })

        return [(rhs_x, bc(0)), (rhs_y, bc(1))]

    def solve_Eperp_order(self, n: int, Ecal_n: VectorField2, gauss: np.ndarray, J,
                          rates: FieldRates | None) -> VectorField2:
        """Componentwise 3D solve; ``gauss`` is :meth:`gauss` of this order's Ez.

        Solves the x problem of :meth:`eperp_problems`, then the y problem.
        """
        (rhs_x, bc_x), (rhs_y, bc_y) = self.eperp_problems(n, Ecal_n, gauss, J, rates)
        Ex = _solve_scalar(rhs_x, *self._operator, bc_x)
        Ey = _solve_scalar(rhs_y, *self._operator, bc_y)
        return VectorField2(self.mesh, Ex, Ey)

    def solve_Bperp_order(self, Eperp_n: VectorField2, div_E: np.ndarray, J,
                          rates: FieldRates | None,
                          bperp_nu: dict[str, np.ndarray]) -> VectorField2:
        """Per-slice div-curl solve for Bperp with the imposed normal trace
        ``bperp_nu`` (see :func:`bperp_normal_trace`); ``div_E`` is
        div_perp of ``Eperp_n``."""
        mesh, beta = self.mesh, self.beta
        if rates is None:
            dt_Ez_prev = dt_Bz_prev = 0.0
        else:
            dt_Ez_prev, dt_Bz_prev = rates.Ez.values, rates.Bz.values

        curl_src = dt_Ez_prev + beta * div_E - J[2]
        div_src = -(curl_perp_vector(Eperp_n).values + dt_Bz_prev) / beta

        # rotate onto the tangential-data solver: W = Bperp x e_z has
        # div W = curl B, curl W = -div B, W.tau = -(B.nu)
        W = solve_divcurl_2d(
            ScalarField(mesh, curl_src),
            ScalarField(mesh, -div_src),
            {f: -bperp_nu[f] for f in FACE_ORDER},
        )
        return VectorField2(mesh, -W.y, W.x)  # B = -(W x e_z)

    def solve_Bz_order(self, n: int, div_B: np.ndarray) -> ScalarField:
        """Bz from ``div_B``, div_perp of this order's Bperp."""
        init = self.external.bz if n == 0 else 0.0
        return ScalarField(self.mesh, cumint_zeta(div_B, self.mesh, initial=init))

    # -- full chain --------------------------------------------------------------

    def solve_order(self, n: int, sources: SourceTerms,
                    rates: FieldRates | None) -> FieldOrder:
        """Order n from the sources and ``rates``, those of :func:`lower_rates`."""
        rho, J = order_sources(sources, n)
        Ez = self.solve_Ez_order(n, rho, J, rates)
        # the boundary condition fixes Bperp . nu from order n-1 data alone, so
        # the Ecal, Eperp and Bperp stages each run once
        nu = bperp_normal_trace(rates, self.beta, self.mesh)
        gauss = self.gauss(Ez, rho)
        Ecal = self.solve_Ecal_order(gauss, J, rates, nu)
        Eperp = self.solve_Eperp_order(n, Ecal, gauss, J, rates)
        del gauss
        Bperp = self.solve_Bperp_order(Eperp, div_perp(Eperp).values, J, rates, nu)
        Bz = self.solve_Bz_order(n, div_perp(Bperp).values)
        return FieldOrder(n=n, Ez=Ez, Ecal=Ecal, Eperp=Eperp, Bperp=Bperp, Bz=Bz).freeze()

    def solve_hierarchy(
        self,
        n_max: int,
        sources: SourceTerms,
        previous: FieldHierarchy | None = None,
        time: float = 0.0,
    ) -> FieldHierarchy:
        """Run the chain for orders 0..n_max and return the completed hierarchy.

        ``sources`` are the charge and current moments, which belong to order
        0 (see :func:`order_sources`).  ``previous`` is the snapshot the time
        derivatives read, solved on this mesh at this beta before ``time``;
        None is a cold start.
        """
        check_inputs(self.mesh, self.beta, sources, previous, time)
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        require_finite("sources", rho=sources.rho.values, Jx=sources.Jperp.x,
                       Jy=sources.Jperp.y, Jzeta=sources.Jzeta.values)

        orders = []
        for n in range(n_max + 1):
            # the rates are an argument, so they are freed when the order is
            # done, before the next order's rates are formed
            orders.append(self.solve_order(n, sources, lower_rates(n, orders, previous, time)))
        return FieldHierarchy(mesh=self.mesh, beta=self.beta, orders=orders, time=time)
