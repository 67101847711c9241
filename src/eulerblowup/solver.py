"""Finite-volume solver for the isentropic gas in slab or radial symmetry.

Conservative variables (rho, rho*V) are advanced with a Rusanov
(local Lax-Friedrichs) flux, first order by default with an optional
minmod-limited MUSCL reconstruction advanced by one MUSCL-Hancock step:
each cell's two limited face states are predicted half a step with the
cell's own flux difference, and one Rusanov flux of the predicted states
updates the cells, second order in space and time with one flux per step
(van Leer 1979, "Towards the ultimate conservative difference scheme V";
Toro 2009, *Riemann Solvers and Numerical Methods for Fluid Dynamics*,
section 14.4).  Radial geometry adds the cell-centered geometric source
-(N-1)/r * (rho*V, rho*V**2) and reflects the origin; the outer boundary
holds the quiescent background, which both schemes preserve exactly.
``run`` steps a 1-D line as its half x > 0 behind a mirror face at x = 0
(see "The mirror").

Blowup is proxied by two detectors: a per-cell velocity jump reaching a
fixed fraction of the background sound speed, and the CFL time step
falling under a floor.

The kernel.  ``_advance`` advances the cells [a, b) of a workspace's
(2, n + 4) buffer of (rho, rho*V) in place by one step, with two ghost
columns per side: it writes the far-field background (rho_bar, +0.0) into
the two columns beyond each end of the window, except the left pair in
radial geometry, which it fills with the reflection across r = 0.
``step`` wraps it: it checks dt, loads a snapshot into a fresh workspace,
advances every cell and returns a new snapshot.  Each part works on both
variables at once, over the cells -1 .. m of a window of m cells, the
inner ghost of each side included.  ``_reconstruct`` makes one difference
and one minmod pass for the slopes and writes the left and right face
states of every cell into one (2, 2, m + 2) array.  ``_predict`` moves
both face states of a cell by dt/(2 dx) * (F(U_left) - F(U_right)), less
dt/2 times the cell's radial source, into a second such array.
``_rusanov`` evaluates the sound speed, pressure and flux of the face
states once and takes one difference of the stacked flux; in radial N > 1
the cells' source is read at their half-step state, the cell plus its
predictor increment, so the step stays second order in time.  First order
evaluates the flux once per cell, since its face states are the cells
themselves, and reads the source at the cells.  The predictor of the
reflection ghost uses the coefficient -(N - 1)/r_0, so its predicted
states are the mirror images of cell 0's and the face at r = 0 carries no
mass.  The kernel gives the same bits as the tests' separate per-variable
reference step:

- the same elementwise IEEE operations act on the same operands in the
  same order; stacking, in-place updates (``out=``) and swapping the
  operands of a single + or * change no rounding;
- half the minmod slope is 0.5 * max(min(a, b), min(max(a, b), 0)), the
  median of a, b and 0; the median equals 0.5 * (sign(a) + sign(b)) *
  min(|a|, |b|) and the sum max(min(a, b), 0) + min(max(a, b), 0) for
  every non-zero result (each is a or b when both share a sign, else a
  zero); the three can differ only in the sign of a zero slope, and a zero
  slope of either sign leaves every face state unchanged unless the cell
  holds -0.0, which the oracle tests check bit for bit;
- rho ** 1 is rho and rho ** 2 is rho * rho, the correctly rounded square
  (``model.rho_power``);
- the flux is kept doubled, the sum of both sides' fluxes minus the larger
  speed times the jump, and du is -(f[j+1] - f[j]) / (2 dx): scaling by 2
  commutes with correctly rounded +, -, * and /, so this is the halved
  flux over dx unless a halved value would be subnormal or a doubled one
  overflow (the oracle tests pin momenta of 1e-310, 3e-308 and 1e150);
  the negation stays a call of its own: f[j] - f[j+1] would move the sign
  of a zero, a division by -2 dx would keep the sign of a NaN that the
  negation flips, and a multiplication by -1/(2 dx) the last bit.

The window.  ``run`` keeps one (rho, V) state, the whole grid radially and
the half-line in 1-D, and updates it in place.  The background (rho_bar,
0) is a bitwise fixed point of both schemes, so a cell can leave it only
when a perturbed cell lies within the reach of one step, one cell under
either scheme.  The MUSCL stencil spans two cells per side, but the minmod
slope of a background cell with a background neighbour is zero: both its
face states are the background, so its flux difference and its radial
source are zeros and its predicted states are the background too.  A face
between two background cells therefore carries the background flux, and a
background cell changes in a step only next to a perturbed one.  The run
keeps a front, a cell past which every cell is a background cell: the last
perturbed cell at t = 0, found by the run's one scan of the state.  After a
step only the cell past the front can have left the background, so the
front moves onto it exactly when that cell is off (rho_bar, 0), and stays
otherwise; a cell behind it that returns to the background does not move it
back.  So the front bounds the perturbed cells from above and never moves
left, at a cost of two element reads per step.  Each step advances one
range, the window [0, b): b is the front plus the reach plus one background
cell, rounded up to a multiple of ``_BLOCK`` = 32 cells and clipped to the
state, so the window's end, and with it every view the kernel reads (see
"The workspace"), moves about once every 32 / cfl steps instead of at
nearly every step.  The window starts at cell 0, where the reflection ghost
applies (r = 0, or the mirror face x = 0); every other cell stays as it is,
and the two cells past its end, which the kernel overwrites with its
far-field ghosts, are background cells.  The window keeps the grid's
spacing, so the result equals a step of the whole state bit for bit.  Its
cells past the reach of the front are background cells, which the step
leaves as they are, bit for bit, a zero velocity of either sign included:
each du is a zero, -0.0 in the momentum row, so adding it changes neither a
non-zero density nor a momentum zero of either sign.  The time step and the
detector read the window just stepped, the view: it holds every perturbed
cell and, unless it is the whole state, a background cell, whose speed |V|
+ c is the same in every background cell, so the maximum speed is the
state's; and the jump between two background cells is a zero, so the
largest velocity jump is the state's and, where it is not a zero, so is the
first cell pair that holds it, however many background cells the view
holds.  Only the first time step and the detector at t = 0 read every cell.
A run with no perturbed cell binds a window of two background cells once
and only advances the time, so its time step costs the same on every grid.

The mirror.  A 1-D scenario holds an even density bump and an odd velocity
bump (``make_bump_scenario`` builds no other) on an even number of cells,
so x = 0 is a cell face and the solution is its own mirror image: rho(-x) =
rho(x) and V(-x) = -V(x).  That is the half-line problem with a reflecting
wall at x = 0, which radial geometry at N = 1 already steps: no geometric
source, and the origin reflection (rho, -rho*V) of the first two cells is
the mirror image behind the wall (LeVeque 2002, *Finite Volume Methods for
Hyperbolic Problems*, on reflecting boundaries).  So ``run`` steps only the
cells n/2 .. n - 1 of the line, on their own centers, with the grid's
spacing and scheme, in a radial-1 workspace: half the cells per step.  It
loads the right half of the sampled data.  Each kept snapshot, recorder
sample and final state, the one at t = 0 included, is the whole line built
from the half on the grid's own centers: rho = [rho_h reversed, rho_h] and
V = [0 - (V_h reversed), V_h], where 0 - v is -v for every non-zero v and
+0.0 for a zero of either sign, as the sampled background holds it, so every
trace is exactly mirror-symmetric: rho == rho[::-1] and V == -V[::-1].  The
time step reads the half's maximum speed, which is the line's.  The left
half of the data is read once, for the largest speed of the whole line at
t = 0: where that is not finite (a NaN, an infinity or a negative density),
the first time step reads it, as a whole-line run's does, and the dt guard
or the dt floor stops the run, a NaN on a line with no perturbed cell
included.  The detector
reads a mirror view of the window [0, m): the jumps of the image cells,
from the image of cell m - 1 to the image of cell 0, which are the half's
|V[k + 1] - V[k]| in reverse order, bit for bit (|(0 - a) - (0 - b)| = |b - a|), then
the jump across x = 0, V[0] - (-V[0]) = 2 V[0], exact, at the line's m + 1
centers there.  Every jump of the line's right half repeats an earlier one
and every jump past the window is a zero, so the first maximum of these is
the line's first maximum, and the event equals ``detect_blowup`` of the
snapshot ``run`` keeps.  A half-line run differs from a step of every cell
of the line at rounding level: the line's centers -L + (j + 1/2) dx are not
exact negatives of each other, and its flux sum (mv_l + p_l) + mv_r + p_r
is not mirror-equivariant in floating point, so a whole-line run loses its
own symmetry at rounding level, and on strongly steepening data MUSCL
amplifies that loss.

The workspace.  A ``_Workspace`` owns everything a run touches for one
grid, allocated once: the ghosted (2, n + 4) buffer U with its rho and mom
rows, the velocities V, the radial coefficient (N - 1)/r of every cell and
of both inner ghosts, the far-field ghost block, every temporary of the
kernel (slopes, limited and predicted face states, the predictor's
increment and source, velocities, speeds, |v|, pressures, the Rusanov
speed, flux, jump, du, the half-step state and the radial source, one flat
array each) and the scratch of the view.  The
kernel writes every value with ``out=``, the same ufuncs on the same
operands in the same order, so no bit changes and a step allocates no
window-sized array.  ``bind(a, b)`` cuts every view the kernel reads for
the window [a, b), and cuts them again only when (a, b) changes: from each
temporary a contiguous prefix shaped for b - a cells (a prefix slice of a
2-D buffer is strided, which slows every ufunc on it, and views of one
shared buffer can make numpy copy an operand it cannot prove disjoint from
the output), their rows and shifted views (flux[:, 1:], the left and right
speeds of each face, every face density as one row, ...), the window's
cells and their rho and mom rows in U, the two ghost blocks, the
reflection pair, the shifted stencils u[:, 1:] and u[:, :-1], the cells
-1 .. m, the face states of first order, the coefficients, and the
window's ``view``: a ``_View`` of its cells, their V, V[1:], V[:-1] (in a
mirror view, both reversed) and scratch.  After that the kernel slices
nothing and writes each ghost pair as one (2, 2) block.  A MUSCL step makes
43 ufunc calls in slab geometry, 45 in radial1 (the reflection's copy and
negation) and 55 in radial3 (the predictor's source, the half-step state
and its source); a first-order step makes 23, 25 and 29.  Each count
includes the density checks, one argmin each (three under MUSCL, one under
first order; see "The checks"), and takes gamma = 2, whose pressure and
sound speed call no pow.  Most calls run on a few hundred cells, so their
fixed cost is most of a step: measured on a 2-vCPU x86-64 VM with numpy
2.4 at 473 cells, a ufunc call costs 0.9 us on contiguous arrays with
``out=``, 0.7 us as an in-place operator and 2.2 us on strided (2, 476)
views, a Python-float operand adds 0.35 us over a 0-d array, a slice costs
0.2-0.5 us, and a rebind of a 3000-cell window 26-35 us under MUSCL and
13-15 us under first order (radial1 and radial3), as much as a step of a
few hundred cells: hence the window's blocks.

The workspace owns the step: ``step(a, b, t, dt)`` writes rho*V of the
window into the mom row, hands the window to ``_advance`` and writes V =
(rho*V)/rho back.  ``run`` builds one workspace per run, over the
half-line's cells in 1-D, and keeps its state in it, rho as the density
row of the buffer and V; the public ``step`` loads a snapshot into a fresh
workspace and steps every cell, the whole line with its far-field ghosts
in 1-D.
The ghost columns beyond the window are cells of the grid, background cells by the
reach argument, or the buffer's own ghosts at its ends; the kernel
overwrites them with (rho_bar, +0.0), or with the reflection, because a
background cell may hold V = -0.0, whose momentum is -0.0.  The
detector's threshold and cfl * dx are computed once per run;
``cfl_dt`` and ``detect_blowup`` read a snapshot through the same ``_View``
as the window's view.  The state is copied, or mirrored into the whole
line, only for a snapshot, a recorder sample or the final state.

The clocks.  Each of the snapshot and the sample clocks keeps only an
integer count k: a step at t >= k * interval - eps keeps a snapshot or a
sample, and k then moves past the time just kept, even where the interval
is below the ulp of t; an interval too small for t_end / interval to be
finite is rejected.  The trace records why the loop stopped: ``t_end``,
``slope_threshold``, ``dt_floor`` or ``max_steps``.

The time step.  dt is the Courant number cfl times dx over the largest
signal speed |V| + c; cfl is 0.8 by default.  The MUSCL-Hancock step with
a minmod slope is stable and TVD up to Courant number 1 in 1-D (van Leer
1979; Toro 2009, section 14.4), as is the first-order Rusanov step; the
radial geometric source uses up the headroom near 1.  Measured at 4096 and
8192 cells (numpy 2.4, x86-64), ref-radial3's mass drift falls by a factor
4.00 per refinement at 0.45 and at 0.8, 3.43 at 0.9 and 1.24 at 0.95, and
the first-order radial-3 acoustic error of the tests at 1024 cells is 0.98
times its value at 0.45 at 0.8 but 1.03 times at 0.9.  At 0.8 every exact
oracle of the tests reads a smaller L1 density error than at 0.45 (MUSCL
0.49-0.66 times, first order 0.54-0.98 times), neither MUSCL face fallback
fires on the certified or reference presets, and a run takes 44 % fewer
steps.

``run`` does not rescan its window for the unit-CFL limit that ``step``
checks.  Its dt is at most cfl < 1 times dx over the maximum
speed of the view, the window last stepped, which dt and the detector
read.  The next window's perturbed range lies in the view, so every cell
of the next window lies in the view or is a background cell, whose speed
the view holds; the window's maximum speed is at most the view's and dt
stays under dx over it (rounding is monotone, so the bound holds in
floating point).  ``run`` keeps the check
dt > 0, which a NaN in the state fails: its speed, and so dt, is NaN.

The checks.  Each positivity check reads one element: ``x[x.argmin()] <=
0`` for the limited and the predicted face densities and the final
densities, and the time step's maximum speed is ``speed[speed.argmax()]``.
An argmin costs 0.65-1.6 us where ``np.minimum.reduce`` costs 1.7-2.7 us,
at 474-4400 values, and the two decide alike: without a NaN they read the
same extreme value, a zero of either sign is <= 0, and a speed |V| + c is
never -0.0; argmin and argmax return the first NaN, so a NaN reads NaN and
NaN <= 0 is false, as for the NaN the reduction returns.  A NaN cell gives
NaN faces, which fail no check.  Each face check falls back per cell:

- where a limited face density of a cell is <= 0, both its faces take the
  cell's own value, first order in space.  In ``run`` this check never
  fires, and the predictor reads a real pressure: the cells passed the
  last step's final density check, the ghosts are rho_bar > 0 or
  reflections of cells, and limited faces of positive cells are positive.
  For positive cells u, minmod limits each half slope h to |h| <= fl(0.5 *
  u) when it points toward a smaller neighbour v > 0, since that
  difference rounds to at most u - v < u; so each face fl(u +- h) is at
  least fl(u - fl(0.5 * u)) > 0: about 0.5 * u for normal u, and for a
  subnormal u of k ulp, fl(0.5 * u) rounds half to even to fewer than k
  ulp.  The public ``step`` reaches it on non-positive input;
- where a predicted face density of a cell is <= 0, both its faces take
  their unpredicted, limited states, first order in time, and its radial
  source reads the cell itself instead of its half-step state.  A thin
  cell between diverging flows reaches it: its predictor drains the mass
  of its faces.  The Rusanov flux then reads positive states wherever the
  cells are positive.

The final density check raises ``NegativeDensityError``, and so does the
public ``step`` at the first NaN density it makes from a state without one:
a negative input density has no real sound speed under most gammas, and
the NaN faces it gives pass every check.  A state that holds a NaN density
is stepped as it is: its NaN reaches two cells through the MUSCL slopes, and
it turns the face fallback off everywhere, since the kernel decides that
with one reduction, so any NaN in the result may be its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .functionals import FieldSnapshot, FunctionalSeries, SeriesRecorder, initial_snapshot
from .model import DetectorParams, EosParams, Geometry, Scenario, rho_power, signal_speed

FIRST_ORDER = "first_order"
MUSCL = "muscl"

SLOPE_THRESHOLD = "slope_threshold"
DT_FLOOR = "dt_floor"
# the other causes a run stops for
T_END = "t_end"
MAX_STEPS = "max_steps"


class NegativeDensityError(RuntimeError):
    """The update produced a non-positive density (reported, never clamped)."""

    def __init__(self, t: float, location: float, value: float):
        self.t, self.location, self.value = float(t), float(location), float(value)
        super().__init__(
            f"non-positive density {value:g} at x={location:g}, t={t:g}"
        )


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.8
    reconstruction: str = MUSCL
    t_end: float = 1.0
    snapshot_interval: float = 0.05
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not 0 < self.cfl < 1:
            raise ValueError("cfl must lie in (0, 1)")
        if self.reconstruction not in (FIRST_ORDER, MUSCL):
            raise ValueError(f"unknown reconstruction {self.reconstruction!r}")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not self.snapshot_interval > 0:
            raise ValueError("snapshot_interval must be positive")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral) or self.max_steps < 1:
            raise ValueError(f"max_steps must be a positive integer, got {self.max_steps!r}")


@dataclass(frozen=True)
class BlowupEvent:
    t: float
    cause: str  # slope_threshold | dt_floor
    location: float
    value: float

    def to_dict(self) -> dict:
        return {"t": self.t, "cause": self.cause, "location": self.location, "value": self.value}


@dataclass
class SolutionTrace:
    scenario: Scenario
    config: SolverConfig
    snapshots: list
    series: FunctionalSeries | None
    blowup: BlowupEvent | None
    steps: int
    t_final: float
    # why run stopped: t_end, slope_threshold, dt_floor or max_steps; None
    # for a trace that run did not make
    stop: str | None = None

    @property
    def t_detect(self) -> float | None:
        return self.blowup.t if self.blowup is not None else None


class _View:
    """Cells whose largest signal speed and velocity jump the time step and detector read, with scratch.

    ``speed`` and ``scratch`` have the cells' size; |V| and then the
    velocity jumps share ``scratch``.  A mirror view holds the cells [0, m)
    of a half-line whose whole line is its mirror image; its jumps are the
    line's over the image cells and across x = 0, and ``centers`` are the
    line's m + 1 centers there (see "The mirror" in the module docstring).
    """

    def __init__(
        self, rho: np.ndarray, V: np.ndarray, centers: np.ndarray, speed: np.ndarray, scratch: np.ndarray,
        mirror: bool = False,
    ):
        self.rho, self.V, self.centers, self.speed, self.abs_v = rho, V, centers, speed, scratch
        self.mirror = mirror
        if mirror:
            # the image cells' jumps, left to right: V[k + 1] - V[k] from k = m - 2 down to 0
            back = V[::-1]
            self.V_hi, self.V_lo, self.jumps, self.differences = back[:-1], back[1:], scratch, scratch[:-1]
        else:
            self.V_hi, self.V_lo, self.jumps = V[1:], V[:-1], scratch[:-1]
            self.differences = self.jumps

    def max_speed(self, eos: EosParams):
        """max(|V| + c) over the cells, read at argmax (see "The checks")."""
        speed = signal_speed(eos, self.rho, out=self.speed)
        speed += np.abs(self.V, out=self.abs_v)
        return speed[speed.argmax()]

    def jump_event(self, t: float, threshold) -> BlowupEvent | None:
        """A slope event at t if the largest |V[i+1] - V[i]| reaches threshold, or None.

        The event is at the first largest jump, of the whole line for a mirror view.
        """
        jumps = self.jumps
        np.subtract(self.V_hi, self.V_lo, out=self.differences)
        if self.mirror:
            # the jump across x = 0, from the image -V[0] of cell 0 to V[0]
            jumps[-1] = self.V[0] + self.V[0]
        np.abs(jumps, out=jumps)
        i = int(jumps.argmax())
        if jumps[i] >= threshold:
            loc = 0.5 * (self.centers[i] + self.centers[i + 1])
            return BlowupEvent(t=t, cause=SLOPE_THRESHOLD, location=float(loc), value=float(jumps[i]))
        return None


def _snapshot_view(snap: FieldSnapshot) -> _View:
    n = snap.rho.size
    return _View(snap.rho, snap.V, snap.centers, np.empty(n), np.empty(n))


def cfl_dt(snap: FieldSnapshot, eos: EosParams, cfl: float = SolverConfig.cfl) -> float:
    """Largest stable time step: cfl * dx / max(|V| + c).

    Raises ValueError when that maximum is not finite: a NaN or an
    infinity in the state, or a negative density whose sound speed is not
    real.
    """
    speed = _snapshot_view(snap).max_speed(eos)
    if not np.isfinite(speed):
        raise ValueError(f"the largest signal speed max(|V| + c) of the state is {speed}")
    return float(cfl * snap.spacing / speed)


# the arrays of a workspace: name, leading dimensions, and cells past the
# window's m in the last dimension; the per-state arrays hold a value per
# cell of the ghosted window, the cells -1 .. m, under first order, and per
# face of each of those cells under MUSCL
_COMMON = (
    ("a", (), 1),
    ("flux", (2,), 1),
    ("jump", (2,), 1),
    ("du", (2,), 0),
    ("source", (2,), 0),
)
_ARRAYS = {
    FIRST_ORDER: tuple((name, (), 2) for name in ("v", "speed", "abs_v", "p")) + _COMMON,
    MUSCL: tuple((name, (2,), 2) for name in ("v", "speed", "abs_v", "p")) + _COMMON + (
        ("d", (2,), 3),
        ("half", (2,), 2),
        ("negative", (2,), 2),
        ("faces", (2, 2), 2),
        ("predicted", (2, 2), 2),
        ("delta", (2,), 2),
        ("face_source", (2,), 2),
        ("mid", (2,), 0),
    ),
}


class _Window:
    """The views of a ghosted (2, m + 4) window u that the kernel reads, cut once.

    The face states are the cells next to each face under first order,
    and the workspace's predicted states under MUSCL.  The state's window
    also carries ``view``, the ``_View`` of its cells (set by
    ``_Workspace.bind``).
    """

    def __init__(self, u: np.ndarray, ws: "_Workspace"):
        self.cells = cells = u[:, 2:-2]
        self.rho, self.mom = cells[0], cells[1]
        self.left_ghosts, self.right_ghosts = u[:, :2], u[:, -2:]
        # the reflection across r = 0: even density, odd velocity
        self.mirror, self.image, self.mirror_mom = u[:, 1::-1], u[:, 2:4], u[1, :2]
        if ws.muscl:
            # the cells -1 .. m, and the cells right and left of each difference
            self.ghosted, self.hi, self.lo = u[:, 1:-1], u[:, 1:], u[:, :-1]
            # face j, between cells j - 1 and j, has the right face of cell j - 1 on its left
            predicted = ws.predicted
            self.left, self.right = predicted[:, 1, :-1], predicted[:, 0, 1:]
            self.rho_s, self.mom_s = predicted
        else:
            self.left, self.right = u[:, 1:-2], u[:, 2:-1]
            self.rho_s, self.mom_s = u[0, 1:-1], u[1, 1:-1]
        self.left_mom, self.right_mom = self.left[1], self.right[1]


# 0-d operands: a ufunc takes them faster than a Python float, with the same bits
_ZERO, _HALF = np.array(0.0), np.array(0.5)


class _Workspace:
    """One grid's ghosted (rho, rho*V) buffer ``U``, velocities ``V`` and all ``run`` needs to step them.

    Allocates everything once; ``bind(a, b)`` cuts the views of the window
    [a, b), its ``view`` included, only when (a, b) changes, and ``step``
    advances the state over a window (see "The workspace" in the module
    docstring).  A workspace given ``line``, the whole line's centers,
    holds its right half; its windows start at cell 0 and their views are
    mirror views (see "The mirror").
    """

    def __init__(
        self, centers: np.ndarray, dx: float, geometry: Geometry, eos: EosParams, reconstruction: str,
        line: np.ndarray | None = None,
    ):
        n = centers.size
        self.centers, self.dx, self.eos, self.line = centers, dx, eos, line
        self.dx2 = np.array(2.0 * dx)  # du's divisor: the flux is kept doubled
        self.radial, self.muscl = geometry.is_radial, reconstruction == MUSCL
        self.U = np.empty((2, n + 4))
        self.rho, self.mom = self.U[:, 2:-2]
        self.V = np.empty(n)
        self.view_speed, self.view_scratch = np.empty(n), np.empty(n)
        self.K = np.array(eos.K)
        self._buffers = []
        for name, lead, extra in _ARRAYS[reconstruction]:
            rows = math.prod(lead)
            self._buffers.append((name, lead, rows, extra, np.empty(rows * (n + extra))))
        # the radial source coefficient (N - 1)/r of the cells -1 .. n, None
        # when there is no source: the reflection ghost's is -(N - 1)/r_0,
        # which makes its source the mirror image of cell 0's, and the outer
        # ghost's, which multiplies a zero momentum, is 0
        self.radial_coeff = None
        if geometry.is_radial and geometry.ndim > 1:
            coeff = (geometry.ndim - 1) / np.maximum(centers, 0.5 * dx)
            self.radial_coeff = np.concatenate((-coeff[:1], coeff, [0.0]))
        self.far_field = np.array(((eos.rho_bar, eos.rho_bar), (0.0, 0.0)))
        self.key = None

    def bind(self, a: int, b: int) -> _Window:
        """The window of cells [a, b) of ``U``; its views are cut when (a, b) changes."""
        if (a, b) != self.key:
            m = b - a
            for name, lead, rows, extra, flat in self._buffers:
                size = m + extra
                setattr(self, name, flat[:rows * size].reshape(*lead, size) if lead else flat[:size])
            # the values at the left and the right state of every face in a per-state array
            il, ir = ((1, slice(None, -1)), (0, slice(1, None))) if self.muscl else (slice(None, -1), slice(1, None))
            self.speed_l, self.speed_r = self.speed[il], self.speed[ir]
            self.mv_l, self.mv_r = self.v[il], self.v[ir]
            self.p_l, self.p_r = self.p[il], self.p[ir]
            self.flux_rho, self.flux_mom = self.flux
            self.flux_hi, self.flux_lo = self.flux[:, 1:], self.flux[:, :-1]
            self.jump_rho, self.jump_mom = self.jump
            if self.muscl:
                self.d_l, self.d_r = self.d[:, :-1], self.d[:, 1:]
                # faces[var, side, c]: the left (side 0) and right (side 1)
                # face state of cell c - 1, unpredicted; predicted likewise
                faces, predicted = self.faces, self.predicted
                self.faces_l, self.faces_r = faces[:, 0], faces[:, 1]
                self.faces_rho, self.faces_mom = faces
                self.faces_mom_l, self.faces_mom_r = self.faces_mom
                self.predicted_l, self.predicted_r = predicted[:, 0], predicted[:, 1]
                # every face density, one contiguous row
                self.face_rho, self.predicted_rho = faces[0].reshape(-1), predicted[0].reshape(-1)
                self.v_l, self.v_r = self.v
                self.delta_rho, self.delta_mom = self.delta
            w = self.window = _Window(self.U[:, a:b + 4], self)
            # a mirror view reads the line's centers from the image of cell m - 1 to cell 0
            h = self.V.size
            centers = self.centers[a:b] if self.line is None else self.line[h - m:h + 1]
            w.view = _View(w.rho, self.V[a:b], centers, self.view_speed[:m], self.view_scratch[:m], self.line is not None)
            self.coeff = None
            if self.radial_coeff is not None:
                self.coeff = self.radial_coeff[a + 1:b + 1]
                self.source_rho, self.source_mom = self.source
                if self.muscl:
                    self.coeff_ghosted = self.radial_coeff[a:b + 2]
                    self.ghosted_rho, self.ghosted_mom = w.ghosted
                    self.face_source_rho, self.face_source_mom = self.face_source
                    self.delta_cells = self.delta[:, 1:-1]
                    self.mid_rho, self.mid_mom = self.mid
            self.key = (a, b)
        return self.window

    def step(self, a: int, b: int, t: float, dt: float) -> _View:
        """Advance the state's cells [a, b) by dt in place and return their view.

        Writes rho*V into the mom row, hands the window to ``_advance`` and
        writes V = (rho*V)/rho back.
        """
        w = self.bind(a, b)
        np.multiply(w.rho, w.view.V, out=w.mom)
        _advance(self, a, b, t, dt)
        np.divide(w.mom, w.rho, out=w.view.V)
        return w.view


def _fall_back(faces: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Where a cell's left or right face density in ``faces`` is <= 0, write ``states`` into both its faces.

    Returns the mask of those cells (see "The checks" in the module docstring).
    """
    bad = (faces[0] <= 0).any(axis=0)
    np.copyto(faces, states, where=bad)
    return bad


def _reconstruct(w: _Window, ws: _Workspace) -> None:
    """The minmod-limited face states of the cells -1 .. m of the bound window w, as ``ws.faces``.

    A cell with a face density <= 0 falls back to its own value on both faces.
    """
    np.subtract(w.hi, w.lo, out=ws.d)
    # half the minmod slope: 0.5 * max(min(dl, dr), min(max(dl, dr), 0)),
    # the median of dl, dr and 0
    half = np.minimum(ws.d_l, ws.d_r, out=ws.half)
    negative = np.maximum(ws.d_l, ws.d_r, out=ws.negative)
    np.minimum(negative, _ZERO, out=negative)
    np.maximum(half, negative, out=half)
    half *= _HALF
    np.subtract(w.ghosted, half, out=ws.faces_l)
    np.add(w.ghosted, half, out=ws.faces_r)
    # limited face states should stay positive; fall back locally
    if ws.face_rho[ws.face_rho.argmin()] <= 0:
        _fall_back(ws.faces, w.ghosted[:, None])


def _predict(w: _Window, ws: _Workspace, dt: float) -> np.ndarray | None:
    """Advance every face state of the cells -1 .. m by dt/2 with its cell's own flux difference, as ``ws.predicted``.

    The Hancock predictor: F(U_left) - F(U_right) times dt/(2 dx), less dt/2
    times the radial source of the cell.  A cell with a predicted face
    density <= 0 falls back to its unpredicted states; returns the mask of
    those cells, or None.
    """
    eos, faces_rho, faces_mom = ws.eos, ws.faces_rho, ws.faces_mom
    # the momentum flux mom * (mom/rho) + K rho**gamma of every face state
    v = np.divide(faces_mom, faces_rho, out=ws.v)
    v *= faces_mom
    v += np.multiply(ws.K, rho_power(faces_rho, eos.gamma, out=ws.p), out=ws.p)
    np.subtract(ws.faces_mom_l, ws.faces_mom_r, out=ws.delta_rho)
    np.subtract(ws.v_l, ws.v_r, out=ws.delta_mom)
    ws.delta *= dt / ws.dx2
    if ws.coeff is not None:
        # the radial source of the cells, (coeff * mom, (mom/rho) * coeff * mom), one block
        np.multiply(ws.coeff_ghosted, ws.ghosted_mom, out=ws.face_source_rho)
        np.divide(ws.ghosted_mom, ws.ghosted_rho, out=ws.face_source_mom)
        ws.face_source_mom *= ws.face_source_rho
        ws.face_source *= 0.5 * dt
        ws.delta -= ws.face_source
    np.add(ws.faces_l, ws.delta, out=ws.predicted_l)
    np.add(ws.faces_r, ws.delta, out=ws.predicted_r)
    rho = ws.predicted_rho
    if rho[rho.argmin()] <= 0:
        return _fall_back(ws.predicted, ws.faces)
    return None


def _rusanov(w: _Window, ws: _Workspace) -> np.ndarray:
    """-(F[j+1] - F[j]) / dx over the cells of the bound window w, from the face states, as ``ws.du``."""
    eos = ws.eos
    rho_s, mom_s = w.rho_s, w.mom_s
    v = np.divide(mom_s, rho_s, out=ws.v)
    speed = signal_speed(eos, rho_s, out=ws.speed)
    speed += np.abs(v, out=ws.abs_v)
    v *= mom_s
    np.multiply(ws.K, rho_power(rho_s, eos.gamma, out=ws.p), out=ws.p)
    # twice the Rusanov flux: the sum of both sides' fluxes minus the larger
    # speed times the jump; du divides by 2 dx
    a = np.maximum(ws.speed_l, ws.speed_r, out=ws.a)
    flux, flux_mom = ws.flux, ws.flux_mom
    np.add(w.left_mom, w.right_mom, out=ws.flux_rho)
    np.add(ws.mv_l, ws.p_l, out=flux_mom)
    flux_mom += ws.mv_r
    flux_mom += ws.p_r
    jump = np.subtract(w.right, w.left, out=ws.jump)
    # row by row: broadcasting a over both rows makes numpy's iterator
    # allocate a buffer of up to 8192 values per call
    ws.jump_rho *= a
    ws.jump_mom *= a
    flux -= jump
    du = np.subtract(ws.flux_hi, ws.flux_lo, out=ws.du)
    np.negative(du, out=du)
    du /= ws.dx2
    return du


def _advance(ws: _Workspace, a: int, b: int, t: float, dt: float) -> None:
    """Advance cells [a, b) of the workspace's buffer ``ws.U`` by dt, in place.

    Column j + 2 of U holds cell j.  The two columns on each side of the
    window are written as the far-field ghost (rho_bar, +0.0) first, so the
    cells there must be background cells; in radial geometry a must be 0,
    and the reflection fills the left pair instead.  ``t`` is the time
    before the step.  Raises NegativeDensityError on a non-positive final
    density, leaving the window's cells undefined.
    """
    w = ws.bind(a, b)
    if ws.radial:
        w.mirror[...] = w.image
        np.negative(w.mirror_mom, out=w.mirror_mom)
    else:
        w.left_ghosts[...] = ws.far_field
    w.right_ghosts[...] = ws.far_field
    state = w.cells
    if ws.muscl:
        _reconstruct(w, ws)
        fell_back = _predict(w, ws, dt)
    du = _rusanov(w, ws)
    if ws.coeff is not None:
        # the radial source (coeff * mom, (mom/rho) * coeff * mom), one
        # block, at the cells' half-step state under MUSCL
        rho, mom = w.rho, w.mom
        if ws.muscl:
            np.add(state, ws.delta_cells, out=ws.mid)
            if fell_back is not None:
                np.copyto(ws.mid, state, where=fell_back[1:-1])
            rho, mom = ws.mid_rho, ws.mid_mom
        np.multiply(ws.coeff, mom, out=ws.source_rho)
        np.divide(mom, rho, out=ws.source_mom)
        ws.source_mom *= ws.source_rho
        du -= ws.source
    du *= dt
    state += du
    i = w.rho.argmin()
    if w.rho[i] <= 0:
        raise NegativeDensityError(t + dt, ws.centers[a + i], w.rho[i])


def step(
    snap: FieldSnapshot,
    eos: EosParams,
    geometry: Geometry,
    dt: float,
    reconstruction: str = FIRST_ORDER,
) -> FieldSnapshot:
    """Advance one time step; raises on non-positive density, a non-finite
    velocity or unstable dt.

    A NaN density is stepped, NaN cells and all, as the kernel's fallback
    decision for it is part of the step; a NaN density the step makes from
    a state without one, such as a negative density's, raises
    NegativeDensityError (see "The checks" in the module docstring).
    Builds a fresh workspace on every call, by design: ``run`` keeps one
    per run, and a cache here would hold a grid's buffers alive between
    unrelated calls.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    hard_limit = float(snap.spacing / _snapshot_view(snap).max_speed(eos))
    # with a finite velocity, a NaN limit comes from the density, a NaN or a
    # negative one without a real sound speed, which the kernel's fallback
    # handles; the comparison below lets it pass
    if not hard_limit > 0 and not np.isfinite(snap.V).all():
        raise ValueError("the velocity of the state is not finite")
    if dt > hard_limit * (1.0 + 1e-12):
        raise ValueError(f"dt {dt:g} exceeds the unit-CFL limit {hard_limit:g}")
    ws = _Workspace(snap.centers, snap.spacing, geometry, eos, reconstruction)
    ws.rho[:], ws.V[:] = snap.rho, snap.V
    ws.step(0, snap.rho.size, snap.t, dt)
    # a NaN density the step made from numbers: a negative input density's
    # sound speed or pressure is NaN; an input NaN explains any other (see
    # "The checks")
    made = np.isnan(ws.rho)
    if made.any() and not np.isnan(snap.rho).any():
        i = int(made.argmax())
        raise NegativeDensityError(snap.t + dt, snap.centers[i], ws.rho[i])
    return FieldSnapshot(t=snap.t + dt, centers=snap.centers, rho=ws.rho, V=ws.V, spacing=snap.spacing)


# cells one step can carry a disturbance, under either scheme (see "The window")
_REACH = 1
# a run's window ends on a multiple of this many cells, or at the state's end (see "The window")
_BLOCK = 32


def detect_blowup(snap: FieldSnapshot, eos: EosParams, detector: DetectorParams) -> BlowupEvent | None:
    """Flag a per-cell velocity jump at or above slope_factor * sound speed."""
    return _snapshot_view(snap).jump_event(snap.t, detector.slope_factor * signal_speed(eos, eos.rho_bar))


def _line(rho: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole line's (rho, V), new arrays, from its right half: rho
    mirrored and V mirrored and negated as 0 - V, which makes a zero +0.0
    (see "The mirror" in the module docstring)."""
    h = rho.size
    rho_line, V_line = np.empty(2 * h), np.empty(2 * h)
    rho_line[:h], rho_line[h:] = rho[::-1], rho
    np.subtract(0.0, V[::-1], out=V_line[:h])
    V_line[h:] = V
    return rho_line, V_line


def run(
    scenario: Scenario,
    config: SolverConfig,
    recorder: SeriesRecorder | None = None,
) -> SolutionTrace:
    """Run a scenario to t_end, the first detector event or the step budget.

    The grid must contain the sound cone of the horizon: extent > R +
    sigma * t_end.  A 1-D scenario must have an even cell count, an even
    density bump (``rho0.odd`` False) and an odd velocity bump (``v0.odd``
    True): its run steps the half-line x > 0 behind a mirror face at x = 0
    and steps only the right half of the initial data, whose left half
    stops the run only where its largest speed is not finite; every snapshot,
    recorder sample and detector event is the whole line's, built from
    the half (see "The mirror" in the module docstring).  Snapshots are
    recorded at t = 0, at every crossing of the snapshot interval, and at
    the final time; the recorder (if given) observes the state at every
    crossing of the detector sample interval, always strictly before any
    detection time.  Either interval must be large enough for t_end /
    interval to be finite.  The trace's ``stop`` names what ended the run.
    """
    eos, geom, det = scenario.eos, scenario.geometry, scenario.detector
    sigma = signal_speed(eos, eos.rho_bar)
    if scenario.grid.extent <= scenario.R + sigma * config.t_end:
        raise ValueError(
            "grid extent does not contain the sound cone of t_end: need extent > "
            f"{scenario.R + sigma * config.t_end:g}"
        )
    mirror = not geom.is_radial
    if mirror and (scenario.grid.cells % 2 or scenario.rho0.odd or not scenario.v0.odd):
        raise ValueError(
            "a 1-D run steps the half-line x > 0: it needs an even cell count, an even density "
            f"bump and an odd velocity bump, got grid.cells={scenario.grid.cells}, "
            f"rho0.odd={scenario.rho0.odd}, v0.odd={scenario.v0.odd}"
        )
    eps = 1e-12 * config.t_end
    end = config.t_end - eps  # t_end, less the rounding the loop forgives
    for name, interval in (("snapshot_interval", config.snapshot_interval),
                           ("detector.sample_interval", det.sample_interval)):
        if not math.isfinite((config.t_end + eps) / interval):
            raise ValueError(f"{name} {interval!r} is too small to count up to t_end {config.t_end!r}")
    initial = initial_snapshot(scenario)
    centers, dx = initial.centers, initial.spacing
    # the state (rho, V), updated in place: rho is the density row of the
    # workspace's buffer, V its velocities (see "The workspace" in the
    # module docstring); in 1-D the right half of the line
    if mirror:
        h = centers.size // 2
        ws = _Workspace(centers[h:], dx, Geometry.radial(1), eos, config.reconstruction, line=centers)
        ws.rho[:], ws.V[:] = initial.rho[h:], initial.V[h:]
    else:
        ws = _Workspace(centers, dx, geom, eos, config.reconstruction)
        ws.rho[:], ws.V[:] = initial.rho, initial.V
    n = ws.V.size

    def kept(t: float) -> FieldSnapshot:
        """The state at t as a snapshot of the whole grid, new arrays."""
        rho, V = _line(ws.rho, ws.V) if mirror else (ws.rho.copy(), ws.V.copy())
        return FieldSnapshot(t, centers, rho, V, dx)

    snap = kept(0.0)

    # the window's margin: the reach and one background cell beyond it
    margin = _REACH + 1
    threshold, cfl_dx = det.slope_factor * sigma, config.cfl * dx
    # the view: the cells of the last window, which the time step and the
    # detector read (see "The window"); every cell at t = 0
    view = ws.bind(0, n).view
    # the front: every cell past it is a background cell; None for a state
    # with no perturbed cell
    off = np.flatnonzero((ws.rho != eos.rho_bar) | (ws.V != 0.0))
    last = int(off[-1]) if off.size else None
    snapshots = [snap]
    blowup = view.jump_event(0.0, threshold)
    if blowup is None and recorder is not None:
        recorder.observe(snap)
    if mirror and not np.isfinite(np.max(signal_speed(eos, initial.rho) + np.abs(initial.V))):
        # a speed of the data that is not finite, perhaps in the left half,
        # which the run never steps: the first time step reads the whole
        # line, as a whole-line run's does (see "The mirror")
        view = _snapshot_view(initial)
    t, steps = 0.0, 0
    # the clocks' counts: the next snapshot and sample at k * interval (see "The clocks")
    k_snap = k_sample = 1
    while blowup is None and t < end and steps < config.max_steps:
        dtc = float(cfl_dx / view.max_speed(eos))
        if dtc < det.dt_floor:
            blowup = BlowupEvent(t=t, cause=DT_FLOOR, location=float("nan"), value=dtc)
            break
        dt = min(dtc, config.t_end - t)
        if not dt > 0:
            raise ValueError("dt must be positive")
        if last is None:
            # nothing to step: two background cells hold the grid's speed and jump
            view = ws.bind(0, 2).view
        else:
            # the window ends past the front's reach and a background cell, on a block
            b = min(-(-(last + margin + 1) // _BLOCK) * _BLOCK, n)
            view = ws.step(0, b, t, dt)
            # only the cell past the front can have left the background
            if last + 1 < n and (ws.rho[last + 1] != eos.rho_bar or ws.V[last + 1] != 0.0):
                last += 1
        t += dt
        steps += 1
        blowup = view.jump_event(t, threshold)
        sample = blowup is None and recorder is not None and (t >= k_sample * det.sample_interval - eps or t >= end)
        keep = t >= k_snap * config.snapshot_interval - eps or t >= end or blowup is not None
        if sample or keep:
            snap = kept(t)
        if sample:
            recorder.observe(snap)
            k_sample = max(k_sample + 1, math.floor((t + eps) / det.sample_interval) + 1)
        if keep:
            snapshots.append(snap)
            k_snap = max(k_snap + 1, math.floor((t + eps) / config.snapshot_interval) + 1)
    # why the loop stopped, read in the order of its condition
    stop = blowup.cause if blowup is not None else T_END if t >= end else MAX_STEPS
    if snapshots[-1].t < t:
        # stopped at the step budget or the dt floor between snapshots
        snapshots.append(kept(t))
    series = recorder.series() if recorder is not None else None
    return SolutionTrace(
        scenario=scenario,
        config=config,
        snapshots=snapshots,
        series=series,
        blowup=blowup,
        steps=steps,
        t_final=t,
        stop=stop,
    )
