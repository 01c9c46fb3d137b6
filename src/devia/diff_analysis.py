"""Grid solvers for the diffusion model's deterministic limit objects.

``solve_fokker_planck`` marches the nonlinear McKean-Vlasov density: at every
step the drift and diffusion fields are recomputed from the current density
by quadrature, then a conservative finite-volume update is applied (limited
upwind advection, central diffusion, explicit Euler in time under a CFL
check).  Mass is conserved to round-off by construction.

``solve_linearized`` marches the mass-zero signed density eta driven by a
control g through the forcing flux sigma * g * rho, plus the two nonlocal
terms that realize the adjoint of the fluctuation generator:

    d_t eta = -d_x[b eta] + 1/2 d_xx[sigma^2 eta]
              - d_x[c_eta rho] + d_xx[sigma d_eta rho] - d_x[sigma g rho],

with c_eta(y) = integral beta(y, x) eta(x) dx and d_eta(y) likewise with
alpha.

``rate_diffusion`` inverts a path eta: the same discrete operator gives the
non-forcing tendency, the leftover residual is integrated in x to recover
the forcing flux sigma*g*rho at the cell interfaces (it must vanish at both
ends, otherwise the path leaks mass), and the cost is 1/2 * integral g^2 rho
evaluated as flux^2 / (sigma^2 rho) away from the degeneracy floor.

Controls are callables g(x, t), sampled on the density's grid.  The
tolerances are module constants, not keyword arguments, so a rate verdict
depends on the path and its grid alone.

The flux helpers act on fields of shape (..., Nx).  The two marches step
one time slice at a time; ``rate_diffusion`` and ``weak_form_residual``
treat a block of up to BLOCK_CELLS grid cells (time slices x Nx) per
batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jump_analysis import RateResult
from .kernels import KernelPair, MeasureHook
from .paths import blocks, grid_index, time_derivative

__all__ = [
    "GridField",
    "solve_fokker_planck",
    "solve_linearized",
    "rate_diffusion",
    "control_cost_on_grid",
    "weak_form_residual",
    "stable_dt",
]

# rate_diffusion: interfaces with sigma^2 rho below EPS_DEG_FACTOR times its
# maximum are degenerate, and a recovered flux leaks when its boundary value
# exceeds LEAK_RTOL times the largest flux (or 1)
EPS_DEG_FACTOR = 1e-8
LEAK_RTOL = 1e-6
# solve_fokker_planck: the default step is CFL_SAFETY times the CFL limit,
# and density above BOUNDARY_TOL in an end cell stops the march
CFL_SAFETY = 0.45
BOUNDARY_TOL = 1e-10
# The blocked passes evaluate at most this many grid cells per call, which
# bounds their temporaries independently of the number of time slices.
BLOCK_CELLS = 1 << 12


def _check_axis(grid: np.ndarray, name: str) -> None:
    """Raise unless ``grid`` is a strictly increasing axis of at least 2 points."""
    if np.ndim(grid) != 1 or len(grid) < 2:
        raise ValueError(f"grid field needs at least 2 {name}; got {np.size(grid)}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"grid field {name} must be strictly increasing")


@dataclass(frozen=True)
class GridField:
    """Field values on a uniform space-time grid; values[k, i] at (ts[k], xs[i])."""

    xs: np.ndarray  # (Nx,) cell centers
    ts: np.ndarray  # (Nt+1,) times
    values: np.ndarray  # (Nt+1, Nx)

    def __post_init__(self):
        _check_axis(self.xs, "spatial nodes")
        _check_axis(self.ts, "times")
        shape = (len(self.ts), len(self.xs))
        if np.shape(self.values) != shape:
            raise ValueError(
                f"grid field values must have shape (times, nodes) = {shape}; "
                f"got {np.shape(self.values)}"
            )

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dt(self) -> float:
        return float(self.ts[1] - self.ts[0])

    def mass(self) -> np.ndarray:
        """Integral over x at each time."""
        return self.values.sum(axis=1) * self.dx

    def index_of(self, t: float) -> int:
        return grid_index(self.ts, t)

    def pair(self, t: float, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """<rho(t), f> for a grid time t."""
        return MeasureHook(points=self.xs, weights=self.values[self.index_of(t)] * self.dx).pair(f)


def _coeff_fields(kernels: KernelPair, xs: np.ndarray, rho: np.ndarray, dx: float):
    mu = MeasureHook(points=xs, weights=rho * dx)
    return kernels.sigma(xs, mu), kernels.drift(xs, mu)


def _vanleer(r: np.ndarray) -> np.ndarray:
    return (r + np.abs(r)) / (1.0 + np.abs(r))


def _advective_flux(v: np.ndarray, f: np.ndarray, dx: float) -> np.ndarray:
    """Flux-limited upwind flux of the field f with cell-center velocity v,
    at the interior interfaces (..., Nx-1)."""
    vf = _central_face(v)
    df = np.diff(f)  # f_{i+1} - f_i
    # limited slope ratios on the donor side; guard zero denominators
    eps = 1e-300
    r_up = np.ones_like(df)
    r_dn = np.ones_like(df)
    r_up[..., 1:] = df[..., :-1] / (df[..., 1:] + np.where(df[..., 1:] >= 0, eps, -eps))
    r_dn[..., :-1] = df[..., 1:] / (df[..., :-1] + np.where(df[..., :-1] >= 0, eps, -eps))
    face_up = f[..., :-1] + 0.5 * _vanleer(r_up) * df  # donor cell on the left
    face_dn = f[..., 1:] - 0.5 * _vanleer(r_dn) * df  # donor cell on the right
    face = np.where(vf >= 0.0, face_up, face_dn)
    return vf * face


def _gradient_flux(p: np.ndarray, dx: float) -> np.ndarray:
    """Interface values of d_x p by central differencing: (p_{i+1}-p_i)/dx."""
    return np.diff(p) / dx


def _central_face(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p[..., :-1] + p[..., 1:])


def _divergence(flux: np.ndarray, dx: float) -> np.ndarray:
    """Cell tendency -d_x F from interior interface fluxes, zero-flux walls."""
    out = np.empty(flux.shape[:-1] + (flux.shape[-1] + 1,))
    out[..., 0] = -flux[..., 0] / dx
    out[..., -1] = flux[..., -1] / dx
    out[..., 1:-1] = -(flux[..., 1:] - flux[..., :-1]) / dx
    return out


def _fp_tendency(kernels, xs, rho, dx):
    sigma, b = _coeff_fields(kernels, xs, rho, dx)
    flux = _advective_flux(b, rho, dx) - _gradient_flux(0.5 * sigma**2 * rho, dx)
    return _divergence(flux, dx), sigma, b


def stable_dt(kernels: KernelPair, xs: np.ndarray) -> float:
    """CFL_SAFETY times the step size of the diffusion and advection CFL
    limits, for coefficient bounds scanned over the grid box."""
    grid = np.asarray(xs, dtype=float)
    a_max = float(np.abs(kernels.alpha(grid[:, None], grid[None, :])).max())
    b_max = float(np.abs(kernels.beta(grid[:, None], grid[None, :])).max())
    dx = float(grid[1] - grid[0])
    lim = dx * dx / max(a_max**2, 1e-12)
    if b_max > 0:
        lim = min(lim, dx / b_max)
    return CFL_SAFETY * lim


def solve_fokker_planck(
    kernels: KernelPair,
    x0: float,
    T: float,
    x_lo: float,
    x_hi: float,
    nx: int,
    dt: float | None = None,
    w0: float | None = None,
) -> GridField:
    """Self-consistent density of the limit law, from a mollified point mass.

    The initial condition is a Gaussian bump of width ``w0`` (default 4 dx)
    at x0, discretely normalized.  Raises before any step if the grid has
    fewer than 2 nodes or the bump no positive finite mass on it, and while
    marching if the density in an end cell exceeds BOUNDARY_TOL (the grid
    must cover the dynamic range) or the CFL condition fails.
    """
    xs = np.linspace(x_lo, x_hi, nx)
    _check_axis(xs, "spatial nodes")
    dx = float(xs[1] - xs[0])
    if w0 is None:
        w0 = 4.0 * dx
    if dt is None:
        dt = stable_dt(kernels, xs)
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    dt = T / n_steps
    rho = np.exp(-((xs - x0) ** 2) / (2.0 * w0 * w0))
    mass = rho.sum() * dx
    if not 0.0 < mass < math.inf:
        raise ValueError(
            f"the start bump at x0={x0:.6g} (width {w0:.6g}) has mass {mass:.6g} "
            f"on [{x_lo:.6g}, {x_hi:.6g}]; move x0 into the domain"
        )
    rho /= mass
    out = np.empty((n_steps + 1, nx))
    out[0] = rho
    for k in range(n_steps):
        tendency, sigma, b = _fp_tendency(kernels, xs, rho, dx)
        _check_cfl(dt, dx, sigma, b)
        rho = rho + dt * tendency
        if abs(rho[0]) > BOUNDARY_TOL or abs(rho[-1]) > BOUNDARY_TOL:
            raise RuntimeError(
                f"density reached the grid boundary at t={k * dt + dt:.6g}; widen [x_lo, x_hi]"
            )
        out[k + 1] = rho
    return GridField(xs, np.linspace(0.0, T, n_steps + 1), out)


def _check_cfl(dt: float, dx: float, sigma: np.ndarray, b: np.ndarray) -> None:
    smax = float(np.max(sigma**2))
    bmax = float(np.max(np.abs(b)))
    if smax > 0 and dt > dx * dx / smax + 1e-15:
        raise RuntimeError(f"CFL violation: dt={dt:.3e} > dx^2/max(sigma^2)={dx * dx / smax:.3e}")
    if bmax > 0 and dt > dx / bmax + 1e-15:
        raise RuntimeError(f"advective CFL violation: dt={dt:.3e} > dx/max|b|={dx / bmax:.3e}")


def _as_control_array(g, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The control g(x, t) sampled on the (time, space) grid."""
    return np.stack([np.broadcast_to(np.asarray(g(xs, t), dtype=float), xs.shape) for t in ts])


def _linearized_tendency(kernels, xs, dx, rho_k, eta, g_k, sigma, b):
    mu_eta = MeasureHook(points=xs, weights=eta * dx)
    c_eta = kernels.beta.mean_y(xs, mu_eta)
    d_eta = kernels.alpha.mean_y(xs, mu_eta)
    flux = (
        _advective_flux(b, eta, dx)
        + _central_face(c_eta * rho_k)
        - _gradient_flux(0.5 * sigma**2 * eta, dx)
        - _gradient_flux(sigma * d_eta * rho_k, dx)
    )
    if g_k is not None:
        flux = flux + _central_face(sigma * g_k * rho_k)
    return _divergence(flux, dx)


def solve_linearized(kernels: KernelPair, rho: GridField, g) -> GridField:
    """March the linearized forced equation from eta(0) = 0 along the times
    of the density field.  Linear in g; conserves the zero mass of eta to
    round-off (every term is a flux divergence)."""
    xs, ts, dx, dt = rho.xs, rho.ts, rho.dx, rho.dt
    garr = _as_control_array(g, xs, ts)
    eta = np.zeros(len(xs))
    out = np.empty_like(rho.values)
    out[0] = eta
    for k in range(len(ts) - 1):
        sigma, b = _coeff_fields(kernels, xs, rho.values[k], dx)
        eta = eta + dt * _linearized_tendency(
            kernels, xs, dx, rho.values[k], eta, garr[k], sigma, b
        )
        out[k + 1] = eta
    return GridField(xs, ts, out)


def control_cost_on_grid(rho: GridField, g) -> float:
    """1/2 * integral g^2 rho dx dt (trapezoid in t)."""
    garr = _as_control_array(g, rho.xs, rho.ts)
    dens = (garr**2 * rho.values).sum(axis=1) * rho.dx
    return 0.5 * float(np.trapezoid(dens, rho.ts))


def _time_blocks(field: GridField):
    """Blocks of time slices of at most BLOCK_CELLS grid cells each."""
    return blocks(len(field.ts), max(1, BLOCK_CELLS // len(field.xs)))


def rate_diffusion(kernels: KernelPair, rho: GridField, eta: GridField) -> RateResult:
    """Least-cost control reproducing eta: recovers the forcing flux from the
    PDE residual and returns 1/2 * integral g^2 rho, or infeasible when the
    recovered flux leaks at the boundary (beyond LEAK_RTOL), lives on
    degenerate cells (below EPS_DEG_FACTOR), or eta fails the mass-zero /
    zero-start contract."""
    xs, ts, dx = eta.xs, eta.ts, eta.dx
    if not (np.array_equal(xs, rho.xs) and np.array_equal(ts, rho.ts)):
        raise ValueError("eta and rho must share the grid")
    vals = eta.values
    scale = max(1.0, float(np.abs(vals).max()))
    if np.abs(vals[0]).max() > 1e-8 * scale:
        return RateResult(math.inf, False, np.zeros(0), "path does not start at zero")
    mass = np.abs(vals.sum(axis=1) * dx)
    if mass.max() > 1e-8 * scale:
        return RateResult(math.inf, False, mass, "path is not mass-zero")

    etadot = time_derivative(ts, vals)
    phi = np.empty((len(ts), len(xs) - 1))  # recovered forcing flux at the interfaces
    s2r = np.empty_like(phi)  # sigma^2 rho at the interfaces
    leak = np.empty(len(ts))
    for b in _time_blocks(eta):
        r = rho.values[b]
        sigma, drift = _coeff_fields(kernels, xs, r, dx)
        resid = etadot[b] - _linearized_tendency(kernels, xs, dx, r, vals[b], None, sigma, drift)
        # resid = -d_x Phi with zero-flux walls: integrate from the left
        phi[b] = -np.cumsum(resid[:, :-1], axis=1) * dx
        leak[b] = np.abs(dx * resid.sum(axis=1))
        s2r[b] = _central_face(sigma**2 * r)
    del etadot, resid  # free before the whole-path expressions below

    flux_scale = max(1.0, float(np.abs(phi).max(initial=0.0)))
    flux_tol = LEAK_RTOL * flux_scale
    ratio = leak / flux_scale
    if leak.max() > flux_tol:
        k = int(leak.argmax())
        return RateResult(
            math.inf,
            False,
            ratio,
            f"forcing flux does not vanish at the boundary at t={ts[k]:.6g} "
            f"(leak {leak[k]:.3e})",
        )
    ok = s2r > EPS_DEG_FACTOR * max(float(s2r.max(initial=0.0)), 1e-300)
    bad = np.flatnonzero((~ok & (np.abs(phi) > flux_tol)).any(axis=1))
    if len(bad):
        return RateResult(
            math.inf,
            False,
            ratio,
            f"recovered flux lives where sigma^2 rho is degenerate at t={ts[bad[0]]:.6g}",
        )
    s2r[~ok] = np.inf  # degenerate interfaces carry neither flux nor cost
    dens_t = np.einsum("ki,ki->k", phi, phi / s2r) * dx
    value = 0.5 * float(np.trapezoid(dens_t, ts))
    return RateResult(value, True, ratio)


def weak_form_residual(
    kernels: KernelPair, rho: GridField, eta: GridField, g, phi
) -> np.ndarray:
    """Pointwise-in-time residual of the weak form

        d/dt <eta, phi> - <eta, L(t) phi> - <sigma g rho, phi'>,

    with the generator applied through the density's measure hook.  The
    residual should shrink under grid refinement; it is the duality check
    between the marched adjoint equation and the test-function calculus.
    """
    from .schwartz import apply_L

    xs, ts, dx = eta.xs, eta.ts, eta.dx
    garr = _as_control_array(g, xs, ts)
    dphi_x = phi.derivative()(xs)
    out = time_derivative(ts, eta.values @ phi(xs) * dx)
    for b in _time_blocks(eta):
        mu = MeasureHook(points=xs, weights=rho.values[b] * dx)
        bracket = np.einsum("ki,ki->k", eta.values[b], apply_L(kernels, mu, phi)(xs)) * dx
        forcing = (kernels.sigma(xs, mu) * garr[b] * rho.values[b]) @ dphi_x * dx
        out[b] = out[b] - bracket - forcing
    return out
