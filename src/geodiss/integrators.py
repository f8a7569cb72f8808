"""Fixed and adaptive Runge-Kutta integration with structure diagnostics.

Both the conservative flow and the corrected (dissipative) flow integrate
through one step loop, ``_lockstep``: one stage loop over the method's
:class:`_Tableau` (fixed-step RK4, Dormand-Prince 5(4) or dop853's 8(5,3)),
one step controller and one set of checks, from one start or
from an (m, n) stack of them, each row taking exactly the steps of its own
run, in the same arithmetic, and failing alone with the message its own run
raises. :func:`integrate` runs it on one start, whose arrays stay
unbatched and whose run yields only its accepted steps, and records the
conserved values, the dissipated value, the full Gram determinant and the
control-field norm at its recorded states. On the corrected flow it also
audits every accepted step: the finite-difference rate of the dissipated
quantity over the step is checked against the predicted rate, minus the
full Gram determinant at the step's midpoint. These diagnostics, control
fields included, are evaluated after the fact, a block of ``_DIAG_BLOCK``
accepted steps at a time, on one stacked frame for the block's midpoints
and one for its records, so a step costs its stage evaluations and nothing
more, and every value is bitwise the one a per-step evaluation gives. A
corrected-flow stage, of one start or of a stack, is one call of the
evaluator that ``control._corrected_rows`` binds to the system once per
run; an unperturbed stage evaluates X alone.
:func:`integrate_ensemble` runs the loop on a stack of corrected-flow
starts, each to its own end time if given one or to the first state an
optional stop test holds at, and keeps only what a basin
ensemble reads: each row's max of the dissipated value over the states a
solo run records, its final state, its step counts and its failure.

Trajectories never get silently re-projected onto a leaf; an optional Newton
re-projection after each accepted step can be switched on in the config, and
leaf drift is always visible in the recorded conserved values. The
re-projection is ``fields._project_rows``, the lockstep form of
:func:`geodiss.fields.project_to_leaf`, the one leaf projection of the
package; a step it cannot bring back onto the initial leaf fails its run
with :class:`LeafProjectionFailure`, never keeps an unconverged point.

This module imports only the layers below it (fields, Gram frames, the
control field); the structure probes and certificates built on trajectories
live above it.
"""
from __future__ import annotations

import contextlib
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .control import _cofactor_from_frames, _corrected_rows
from .errors import (
    GeodissError,
    InitialStepBelowFloor,
    LeafProjectionFailure,
    MaxStepsExceeded,
    NonFiniteState,
    StepUnderflow,
    UnboundedTrajectory,
)
from .fields import DissipativeSystem, _project_rows, _row_norms, as_point, as_stack
from .gram import _nonfinite_differential, system_frames
from .report import csv_text


# Dormand-Prince 5(4): 7 stages, FSAL, fifth-order propagation with a
# fourth-order error estimate.
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.append(_DP_A[6], 0.0)  # FSAL: the last stage row, then 0
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4
# Quartic term of the continuous extension, on the Dormand-Prince stages.
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                      -10690763975 / 1880347072, 701980252875 / 199316789632,
                      -1453857185 / 822651844, 69997945 / 29380423])
# The classical RK4's stage rows; its weights are written out in the step loop.
_RK4_A = [np.array([]), np.array([1 / 2]), np.array([0.0, 1 / 2]), np.array([0.0, 0.0, 1.0])]


def _row(width: int, entries: dict) -> np.ndarray:
    """A coefficient row of ``width`` columns from its ``{column: coefficient}`` entries."""
    row = np.zeros(width)
    for col, value in entries.items():
        row[col] = value
    return row


# Dormand-Prince 8(5,3): 12 stages, an eighth-order new state b @ stages, a
# fifth-order error row damped by a third-order one, and a seventh-order
# continuous extension that takes three more stages. The coefficients of
# Hairer, Norsett & Wanner, Solving ODEs I, II.10, as printed in their code
# dop853. Stage row s runs over the s stages below it.
_DOP853_A = [_row(s, entries) for s, entries in enumerate([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
])]
_DOP853_B = _row(12, {
    0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
    6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
    8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
    10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2})
_DOP853_E5 = _row(12, {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1})
# the third-order row: b minus the weights bhh of stages 1, 9 and 12
_DOP853_E3 = _DOP853_B - _row(12, {
    0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1})
# The extension's three extra stages, rows 14 to 16 of the tableau: their
# rows run over the 12 stages, the slope at the new state (stage 13) and
# the extra stages below them.
_DOP853_EXTRA = tuple(_row(s, entries) for s, entries in enumerate([
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
], start=13))
# The extension's terms past the cubic Hermite (dop853's d4 to d7), on the
# 12 stages, the slope at the new state and the three extra stages.
_DOP853_DENSE = tuple(_row(16, entries) for entries in [
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
])

# Step controller constants: safety 0.9, growth capped at 5x, shrink floored
# at 0.2x, with the usual PI stabilization exponent, whose error exponent is
# 1/(q + 1) - 0.75 beta for Dormand-Prince 5(4) (q = 4) and 1/8 - 0.2 beta
# for dop853 (Solving ODEs I, II.4 and II.10).
_SAFETY = 0.9
_FAC_MAX = 5.0
_FAC_MIN = 0.2
_PI_BETA = 0.04
_ERR_EXPO = 0.2 - 0.75 * _PI_BETA
_DOP853_EXPO = 1 / 8 - 0.2 * _PI_BETA

# An adaptive step below this fraction of t_end is a collapse, and a run
# ends within this fraction below t_end.
_STEP_FLOOR = 1e-14

# Constants of the per-step midpoint consistency band: a quadratic-in-h
# discretization term plus the local-error contamination of the finite
# difference.
_RATE_CURVE_FACTOR = 5.0
_RATE_NOISE_FACTOR = 10.0

# Accepted steps whose records and rate audit are evaluated together; a run
# buffers at most this many steps.
_DIAG_BLOCK = 512
_RATE_FIELDS = ("rate_times", "rate_measured", "rate_predicted", "rate_band")


class Flow(Enum):
    PERTURBED = "perturbed"
    UNPERTURBED = "unperturbed"


class Method(Enum):
    RK4_FIXED = "rk4"
    RK45_ADAPTIVE = "rk45"
    DOP853 = "dop853"


@dataclass(frozen=True, eq=False)
class _Tableau:
    """A Runge-Kutta method as the step loop reads it.

    Stage s is the slope at x + h (a[s] @ stages[:s]). With ``fsal`` the
    last stage point is the new state and the last stage its slope;
    otherwise the new state is x + h (b @ stages), or RK4's weights written
    out where ``b`` is None, and its slope is evaluated after the step.
    ``err`` holds an adaptive pair's error rows, none for a fixed step: one
    row gives an RMS norm, two give dop853's fifth-order estimate damped by
    its third-order one. ``expo`` is the controller's error exponent.
    ``dense`` holds the rows of the continuous extension's terms past the
    cubic Hermite; they run over the stages and, without ``fsal``, the
    slope at the new state and the ``extra`` stages, whose rows continue
    the tableau and which are evaluated only when a state inside the step
    is read.
    """

    a: list
    b: np.ndarray | None = None
    fsal: bool = False
    err: tuple = ()
    expo: float = 0.0
    dense: tuple = ()
    extra: tuple = ()


_TABLEAUS = {
    Method.RK4_FIXED: _Tableau(a=_RK4_A),
    Method.RK45_ADAPTIVE: _Tableau(a=_DP_A, fsal=True, err=(_DP_ERR,), expo=_ERR_EXPO,
                                   dense=(_DP_DENSE,)),
    Method.DOP853: _Tableau(a=_DOP853_A, b=_DOP853_B, err=(_DOP853_E5, _DOP853_E3),
                            expo=_DOP853_EXPO, dense=_DOP853_DENSE, extra=_DOP853_EXTRA),
}


def _adaptive(config: IntegratorConfig) -> bool:
    """Whether the config's method is an adaptive pair: its tableau has error rows."""
    return bool(_TABLEAUS[config.method].err)


@dataclass(frozen=True)
class IntegratorConfig:
    """How a run steps: the method, its first step ``h0``, the tolerances
    of an adaptive method, the end time, the step budget, the thinning of
    the records and the optional leaf re-projection. A value no run can use
    is refused here with ValueError.

    The default method is dop853: at the tolerances the package runs, its
    eighth-order steps take a fifth to a quarter of Dormand-Prince 5(4)'s,
    and its continuous extension is of seventh order."""

    method: Method = Method.DOP853
    h0: float = 0.01
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    t_end: float = 10.0
    max_steps: int = 1_000_000
    record_every: int = 1
    leaf_reprojection: bool = False

    def __post_init__(self):
        # each test fails on NaN
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not self.h0 > 0:
            raise ValueError("h0 must be positive")
        # an error scale abs_tol + rel_tol |x| of 0 on a state component
        # that is exactly 0 rejects every try (0 / 0), so abs_tol must be
        # positive; rel_tol 0 is a pure absolute tolerance
        if not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0 <= self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and non-negative")
        for name in ("max_steps", "record_every"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1")

    def local_tol(self, state_norm: float) -> float:
        return self.abs_tol + self.rel_tol * state_norm


@dataclass
class Trajectory:
    """Recorded states and structure diagnostics of one integration."""

    flow: Flow
    config: IntegratorConfig
    times: np.ndarray
    states: np.ndarray
    conserved_values: np.ndarray   # (records, k)
    dissipated_values: np.ndarray  # (records,)
    det_full: np.ndarray
    control_norm: np.ndarray
    step_sizes: np.ndarray
    # per accepted step (corrected flow only): midpoint rate consistency data
    rate_times: np.ndarray
    rate_measured: np.ndarray
    rate_predicted: np.ndarray
    rate_band: np.ndarray
    checkpoint_times: np.ndarray | None = None
    checkpoint_states: np.ndarray | None = None
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def conservation_drift(self) -> float:
        """Max deviation of any conserved value from its initial value."""
        if self.conserved_values.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(self.conserved_values - self.conserved_values[0])))

    def monotonicity_band(self) -> float:
        """Allowed uphill wiggle of the dissipated value between records."""
        gmax = float(np.max(np.abs(self.dissipated_values)))
        return 10.0 * self.config.local_tol(gmax)

    def monotonicity_violation(self) -> float:
        """Largest recorded uphill move of G beyond the tolerance band (<= 0 is clean)."""
        diffs = np.diff(self.dissipated_values)
        if diffs.size == 0:
            return -np.inf
        return float(np.max(diffs) - self.monotonicity_band())

    def rate_check_violation(self) -> float:
        """Worst excess of |measured - predicted| rate over its band (<= 0 is clean)."""
        if self.rate_measured.size == 0:
            return -np.inf
        gap = np.abs(self.rate_measured - self.rate_predicted) - self.rate_band
        return float(np.max(gap))

    def csv_text(self) -> str:
        """The records as CSV with 17 significant digits."""
        k = self.conserved_values.shape[1]
        n = self.states.shape[1]
        cols = (["t"] + [f"x{i + 1}" for i in range(n)]
                + [f"F{i + 1}" for i in range(k)]
                + ["G", "detSigmaFull", "v0norm", "h"])
        return csv_text(cols, np.column_stack([
            self.times, self.states, self.conserved_values,
            self.dissipated_values, self.det_full, self.control_norm,
            self.step_sizes]))


_NO_SCOPE = contextlib.nullcontext()


def _landing_scope(config: IntegratorConfig):
    """The numpy error state for what runs on the state a step lands on.

    An adaptive try whose stages leave the finite range is rejected, so an
    accepted state is used as it is. A fixed step cannot be rejected: it
    may land on a finite but huge state, where the bound check, the leaf
    re-projection, the slope there and a failed run's diagnostics overflow
    before the run ends in the failure they find. Those overflows warn no
    one, as the stages' do.
    """
    if _adaptive(config):
        return _NO_SCOPE
    return np.errstate(over="ignore", invalid="ignore")


class _Step:
    """One accepted step from (t, x) to (t_new, x_new) and its continuous extension.

    ``f`` and ``f_new`` are the right-hand sides at the two end states.
    ``stages`` holds the stages of an adaptive step whose end state
    was not re-projected, and ``tableau`` its method: the extension is then
    the method's own, Dormand-Prince's free fourth-order one or dop853's
    seventh-order one, whose three extra stages ``kernel`` evaluates when a
    state inside the step is first read. Otherwise it is the cubic Hermite
    on the end states and their right-hand sides. ``accepted`` and
    ``rejected`` count the accepted steps and the rejected tries of the run
    so far, ``final`` marks the run's last step, and ``recorded`` the steps
    whose end states the run records: every ``record_every``-th one and the
    last.
    """

    __slots__ = ("t", "h", "t_new", "x", "x_new", "f", "f_new", "stages",
                 "accepted", "rejected", "final", "recorded", "tableau", "kernel", "_coef")

    def __init__(self, t, h, x, x_new, f, f_new, stages, accepted, rejected, final, recorded,
                 tableau=_TABLEAUS[Method.RK45_ADAPTIVE], kernel=None):
        self.t = t
        self.h = h
        self.t_new = t + h
        self.x = x
        self.x_new = x_new
        self.f = f
        self.f_new = f_new
        self.stages = stages
        self.accepted = accepted
        self.rejected = rejected
        self.final = final
        self.recorded = recorded
        self.tableau = tableau
        self.kernel = kernel
        self._coef = None

    def _dense_terms(self) -> list:
        """The extension's terms past the cubic Hermite: h (row @ stages)
        for each dense row, on the stages and, for a method without FSAL,
        the slope at x_new and the extra stages, evaluated here."""
        tab, k = self.tableau, self.stages
        if not tab.fsal:
            k = np.concatenate((k, self.f_new[None], np.empty((len(tab.extra), k.shape[1]))))
            for s, row in enumerate(tab.extra, start=len(self.stages) + 1):
                xs = self.x + self.h * (row @ k[:s])
                k[s], _, ok = self.kernel(xs)
                if ok is not None:
                    raise NonFiniteState(str(_nonfinite_differential(xs)))
        return [self.h * (row @ k) for row in tab.dense]

    def states_at(self, ts) -> np.ndarray:
        """States at a sorted array of times in [self.t, ...), one row per time.

        A time from t_new on gets the end state itself. The extension is one
        broadcast of elementwise arithmetic, so each row has the bits of an
        evaluation at its time alone.
        """
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, self.x.size))
        inside = int(np.searchsorted(ts, self.t_new))
        out[inside:] = self.x_new
        if not inside:
            return out
        if self._coef is None:
            # Hairer, Norsett & Wanner, Solving ODEs I, II.6 and II.10
            # (dopri5 CONTD5, dop853 CONTD8): the cubic Hermite's terms,
            # then the method's own
            ydiff = self.x_new - self.x
            bspl = self.h * self.f - ydiff
            self._coef = [ydiff, bspl, ydiff - self.h * self.f_new - bspl]
            if self.stages is not None:
                self._coef += self._dense_terms()
        s = ((ts[:inside] - self.t) / self.h)[:, None]
        s1 = 1.0 - s
        # x + s (c0 + s1 (c1 + s (c2 + s1 (c3 + ...)))), from the inside out
        inner = self._coef[-1]
        for j in range(len(self._coef) - 1, 0, -1):
            inner = self._coef[j - 1] + (s1 if j % 2 else s) * inner
        out[:inside] = self.x + s * inner
        return out


def _first_step(config: IntegratorConfig, t_end: float | None = None) -> float:
    """The first step size, min(h0, t_end), checked against an adaptive run's floor.

    ``t_end`` is a run's own end time in place of ``config.t_end``. An
    adaptive run whose first step already lies below the step floor
    1e-14 t_end could only collapse: that is an input problem, raised as
    :class:`InitialStepBelowFloor` before any step.
    """
    if t_end is None:
        t_end = config.t_end
    h = min(config.h0, t_end)
    if _adaptive(config) and not h >= _STEP_FLOOR * t_end:
        raise InitialStepBelowFloor(
            f"the first step min(h0, t_end) = {h:.3e} (h0 = {config.h0:.6g}, "
            f"t_end = {t_end:.6g}) lies below the step floor "
            f"{_STEP_FLOOR:g} * t_end = {_STEP_FLOOR * t_end:.3e}")
    return h


def _check_t_end(config: IntegratorConfig, t_end: float) -> None:
    """Refuse an ensemble row's end time before any evaluation: ValueError
    when it is not positive, :class:`InitialStepBelowFloor` when an adaptive
    first step lies below its floor."""
    if not t_end > 0:  # NaN too
        raise ValueError("t_end must be positive")
    _first_step(config, t_end)


def _step_control(err: float, h_try: float, fac_old: float,
                  expo: float = _ERR_EXPO) -> tuple[bool, float, float]:
    """The controller's verdict on a try of size h_try with error norm err.

    Returns whether the try is accepted, the next step size and the
    controller's memory of the last accepted error; ``expo`` is the
    method's error exponent. A try whose error norm is not finite is
    rejected with the smallest shrink factor.
    """
    if not err <= 1.0:
        return False, h_try * max(_FAC_MIN, _SAFETY / err ** expo), fac_old
    if err == 0.0:
        fac = _FAC_MAX  # exactly stationary state, grow freely
    else:
        fac = _SAFETY * err ** (-expo) * fac_old ** _PI_BETA
    return True, h_try * min(_FAC_MAX, max(_FAC_MIN, fac)), max(err, 1e-4)


def _error_norm(tab: _Tableau, h_col, stages: np.ndarray, scale: np.ndarray):
    """The error norm of a try of each row, from the method's error rows.

    One row gives the RMS of h (err @ stages) / scale. dop853's two rows
    give its fifth-order estimate damped by its third-order one, h s5 /
    sqrt(n (s5 + 0.01 s3)) with s5 and s3 the sums of squares of the
    scaled rows (Solving ODEs I, II.10). Elementwise on each row, so a row
    of a stack gets its point run's bits.
    """
    n = scale.shape[-1]
    if len(tab.err) == 1:
        q = (h_col * (tab.err[0] @ stages) / scale) ** 2
        return np.sqrt(np.add.reduce(q, -1) / n)
    s5, s3 = (np.add.reduce((row @ stages / scale) ** 2, -1) for row in tab.err)
    deno = s5 + 0.01 * s3
    # a try whose scaled error rows both vanish has error 0
    deno = np.where(deno > 0.0, deno, 1.0)
    h_row = h_col if np.ndim(h_col) == 0 else h_col[:, 0]
    return h_row * s5 / np.sqrt(n * deno)


def _lockstep(system: DissipativeSystem, x: np.ndarray, config: IntegratorConfig,
              flow: Flow = Flow.PERTURBED, bound: float | None = None,
              out: EnsembleRun | None = None, t_ends: list | None = None,
              stop=None):
    """Run either flow from a start x of shape (n,), or from each row of an (m, n) stack x.

    The package's one step loop. Each row has its own time, step size,
    controller memory and counters, its own end time (row i's
    ``t_ends[i]``, or ``config.t_end`` for all), is checked alone
    against the step budget, the step floor, non-finite tries, ``bound``
    and the leaf re-projection, and drops out alone, so it takes the steps of a run of
    its own in the same arithmetic: numpy evaluates the stage products one
    row at a time, and the controller runs on Python floats row by row.
    The method is a :class:`_Tableau`, read in one stage loop: stage s is
    the slope at x + h (its stage row s @ the stages below s), for RK4's
    four stages, Dormand-Prince's seven and dop853's twelve alike. An
    adaptive try whose stages leave the finite range, or whose error is not
    finite, is rejected with the smallest shrink factor; a fixed step that
    leaves it fails its row with :class:`NonFiniteState`. Where no stage
    holds the slope at the new state (RK4, dop853, or a re-projected step),
    it is evaluated at the stepping rows after the step. A slope is the
    corrected flow's ``_corrected_rows``, whose rows with non-finite
    differentials come back flagged, or the unperturbed flow's X.

    A point's run yields each accepted step as a :class:`_Step`, and raises
    the :class:`IntegrationFailure` that ends it, with its message. A stack's
    run yields ``(rows, recorded, states)`` for the start and for each try
    in which some row stepped: the start index of each working-set
    position, the positions whose new state a run records, and the states.
    As a row ends, its last state, counters and failure (None when it
    finished), with the message its own run raises, go into row i of
    ``out``. A consumer that stops early has seen exactly the steps of the
    full run up to there. ``stop``, given only with a stack, is a test
    ``stop(states) -> (rows,) bool`` on the new states of the rows that
    stepped in a try: a row it holds ends there as finished, as at its end
    time, with that state recorded as its last.

    The running rows are a compact working set, in start order: states and
    slopes as arrays, times, end times, controller scalars and counters as
    Python lists. A try in which every row steps replaces the arrays whole;
    the set is compacted only when a row finishes or fails. A point's arrays
    stay unbatched, (n,) and (stages, n), where numpy's calls cost the least.
    """
    point = x.ndim == 1
    n = x.shape[-1]
    # each row's end time, the band its last step ends within, and its step
    # floor, as lists over the working set
    t_end = [config.t_end] * (1 if point else len(x)) if t_ends is None else list(t_ends)
    t_stop = [te - _STEP_FLOOR * te for te in t_end]
    min_h = [_STEP_FLOOR * te for te in t_end]
    tab = _TABLEAUS[config.method]
    adaptive = _adaptive(config)
    every = config.record_every
    if flow is Flow.PERTURBED:
        kernel = _corrected_rows(system)
    else:
        X = system.X

        def kernel(pts):
            return X._at(pts) if pts.ndim == 1 else X._values_at(pts), None, None

    ka, _, ok = kernel(x)
    xa = x
    rows = [0] if point else list(range(len(x)))
    if ok is not None:
        if point:
            raise NonFiniteState(str(_nonfinite_differential(x)))
        for i in np.flatnonzero(~ok).tolist():
            out.failures[i] = NonFiniteState(str(_nonfinite_differential(x[i])))
        rows = np.flatnonzero(ok).tolist()
        xa, ka = x[ok], ka[ok]
        t_end, t_stop, min_h = ([v[i] for i in rows] for v in (t_end, t_stop, min_h))
    live = len(rows)
    everyone = range(live)
    if not point:
        yield rows, everyone, xa
        if not rows:
            return

    targets = None
    if config.leaf_reprojection and system.k:
        targets = np.empty((live, system.k))
        for j, f in enumerate(system.conserved):
            targets[:, j] = f.values(xa.reshape(live, n))
    # the working set's Python lists: each running row's time, step size,
    # controller memory and counters
    ta = [0.0] * live
    h_ctrl = [_first_step(config, te) for te in t_end]
    fac_old = [1e-4] * live
    n_acc = [0] * live
    n_rej = [0] * live
    # a try's stages, and the index of stage s and of the stages below it:
    # rows of a point's (stages, n) array, columns of a stack's (m, stages, n) one
    stage_rows = tab.a
    n_stages = len(stage_rows)
    # a point's step keeps its stages for the method's own extension
    keep_stages = point and bool(tab.dense) and targets is None
    stage_shape = xa.shape[:-1] + (n_stages, n)
    if point:
        stage, below = list(range(n_stages)), [slice(s) for s in range(n_stages)]
    else:
        stage = [(slice(None), s) for s in range(n_stages)]
        below = [(slice(None), slice(s)) for s in range(n_stages)]
    t_before, x_before, k_before = 0.0, xa, ka  # a point's step starts here
    tries = 0    # every running row has made one try a pass
    ended = {}   # working-set position -> its failure, or None for a finished row
    take = None  # the positions that step in this try, None for all

    def drop(lost, failure):
        """End the stepping rows at the positions ``lost``, unstepped, each
        with ``failure(position)``; a row keeps its first failure."""
        nonlocal take
        if take is None:
            take = np.ones(live, dtype=bool)
        for j in lost.tolist():
            if take[j]:
                take[j] = False
                ended[j] = failure(j)

    while True:
        # the checks before each running row's next try
        if tries >= config.max_steps:
            for j, t in enumerate(ta):
                ended.setdefault(j, MaxStepsExceeded(
                    f"exceeded {config.max_steps} steps at t={t:.6g} of {t_end[j]:.6g}"))
        elif adaptive and any(map(operator.lt, h_ctrl, min_h)):
            for j, (hc, t) in enumerate(zip(h_ctrl, ta)):
                if hc < min_h[j]:
                    ended.setdefault(j, StepUnderflow(
                        f"step size {hc:.3e} below floor at t={t:.6g}"))
        if ended:
            if point:
                if ended[0] is not None:
                    raise ended[0]
                return
            gone = sorted(ended)
            at = [rows[j] for j in gone]
            out.final[at] = xa[gone]
            for i, j in zip(at, gone):
                out.failures[i] = ended[j]
                out.n_accepted[i], out.n_rejected[i] = n_acc[j], n_rej[j]
            keep = [j for j in range(live) if j not in ended]
            if not keep:
                return
            rows, ta, h_ctrl, fac_old, n_acc, n_rej, t_end, t_stop, min_h = (
                [v[j] for j in keep]
                for v in (rows, ta, h_ctrl, fac_old, n_acc, n_rej, t_end, t_stop, min_h))
            xa, ka = xa[keep], ka[keep]
            if targets is not None:
                targets = targets[keep]
            ended.clear()
            live = len(rows)
            everyone = range(live)
            stage_shape = (live, n_stages, n)

        # the tries' sizes (a fixed step's h_ctrl stays min(h0, t_end)); a
        # point's without the call a comprehension costs
        h = ([min(h_ctrl[0], t_end[0] - ta[0])] if point
             else [min(hc, te - t) for hc, te, t in zip(h_ctrl, t_end, ta)])
        # the sizes as a column, or one row's as a Python float: the same
        # products, and the float skips numpy's broadcasting
        h_col = h[0] if live == 1 else np.array(h).reshape(live, 1)
        take = None
        stages = np.empty(stage_shape)
        stages[stage[0]] = ka
        good = None
        # a try that leaves the finite range is rejected, or fails its row,
        # below: its overflows warn no one
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, n_stages):
                xs = xa + h_col * (stage_rows[s] @ stages[below[s]])
                stages[stage[s]], _, ok = kernel(xs)
                if ok is not None and adaptive:
                    good = ok if good is None else good & ok
                elif ok is not None:
                    drop(np.flatnonzero(~ok), lambda j: NonFiniteState(
                        str(_nonfinite_differential(xs.reshape(live, n)[j]))))
            if tab.fsal:
                # B5 is the last stage row with a trailing zero: the last stage
                # point is the new state, and the last stage its slope (FSAL)
                x_new, k_new = xs, stages[stage[-1]]
            elif tab.b is not None:
                x_new, k_new = xa + h_col * (tab.b @ stages), None
            else:
                # RK4's weights as written: a w @ stages product rounds
                # differently
                k2, k3, k4 = (stages[i] for i in stage[1:])
                x_new, k_new = xa + (h_col / 6.0) * (ka + 2.0 * k2 + 2.0 * k3 + k4), None
            if adaptive:
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(xa), np.abs(x_new))
                err = _error_norm(tab, h_col, stages, scale)
                if good is not None:
                    err = np.where(good, err, np.inf)
                # the controller on Python floats, row by row: its powers must
                # round as a point run's do (a point's norm is a numpy scalar)
                for j, e in enumerate([float(err)] if point else err.tolist()):
                    accepted, h_ctrl[j], fac_old[j] = _step_control(e, h[j], fac_old[j],
                                                                    tab.expo)
                    if not accepted:
                        n_rej[j] += 1
                        if take is None:
                            take = np.ones(live, dtype=bool)
                        take[j] = False
        tries += 1

        with _landing_scope(config):
            if np.count_nonzero(np.isfinite(x_new)) != x_new.size:
                drop(np.flatnonzero(~np.isfinite(x_new).all(axis=-1)),
                     lambda j: NonFiniteState(f"state became non-finite at t={ta[j] + h[j]:.6g}"))
            if targets is not None or k_new is None or bound is not None:
                # the stepping rows, and the new states as a stack
                sel = np.arange(live) if take is None else np.flatnonzero(take)
                new_rows = x_new.reshape(live, n)
            if bound is not None:
                lost = sel[_row_norms(new_rows[sel]) > bound]
                if lost.size:
                    drop(lost, lambda j: UnboundedTrajectory(
                        f"state norm exceeded {bound:.3e} at t={ta[j] + h[j]:.6g}"))
                    sel = np.flatnonzero(take)
            if targets is not None or k_new is None:
                # no stage holds the slope at the new state: evaluate it
                # there, after the re-projection
                if targets is not None and sel.size:
                    y, conv, degen = _project_rows(system, new_rows[sel], targets[sel])
                    for i in np.flatnonzero(~conv).tolist():
                        j = int(sel[i])
                        drop(sel[i:i + 1], lambda _: LeafProjectionFailure(
                            f"conserved differentials degenerate near {y[i].tolist()}"
                            if degen[i] else
                            f"no convergence onto leaf {targets[j].tolist()} "
                            f"from {new_rows[j].tolist()}"))
                    sel = sel[conv]
                    new_rows[sel] = y[conv]
                if sel.size == live:
                    k_new, _, ok = kernel(x_new)
                else:
                    k_new = np.empty_like(xa)
                    ok = None
                    if sel.size:
                        k_new[sel], _, ok = kernel(x_new[sel])
                if ok is not None:
                    drop(sel[np.flatnonzero(~ok)], lambda j: NonFiniteState(
                        str(_nonfinite_differential(new_rows[j]))))

        if take is None:
            xa, ka = x_new, k_new
            stepped = everyone
        else:
            stepped = np.flatnonzero(take).tolist()
            if not stepped:
                continue
            xa = np.where(take[:, None], x_new, xa)
            ka = np.where(take[:, None], k_new, ka)
        held = ()
        if stop is not None:
            hit = np.flatnonzero(stop(xa if take is None else xa[stepped])).tolist()
            held = set(hit if take is None else [stepped[i] for i in hit])
        recorded = []
        for j in stepped:
            n_acc[j] += 1
            ta[j] += h[j]
            if ta[j] >= t_stop[j] or j in held:
                ended[j] = None
                recorded.append(j)
            elif n_acc[j] % every == 0:
                recorded.append(j)
        if point:
            step = _Step(t_before, h[0], x_before, xa, k_before, ka,
                         stages if keep_stages else None,
                         n_acc[0], n_rej[0], bool(ended), bool(recorded), tab, kernel)
            t_before, x_before, k_before = step.t_new, xa, ka
            yield step
        else:
            yield rows, recorded, xa


def _check_checkpoints(cps: np.ndarray, t_end: float) -> None:
    """Raise ValueError unless cps is strictly increasing within [0, t_end]."""
    if cps.ndim != 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps.size and (cps[0] < 0 or cps[-1] > t_end + 1e-12):
        raise ValueError("checkpoints must lie within [0, t_end]")


class _Diagnostics:
    """Records and rate audit of one run, evaluated a block of steps at a time.

    ``add`` buffers an accepted step: its start time, its size and its end
    state. ``flush`` evaluates the buffer: the dissipated value at each end
    state, one stacked frame at the steps' midpoints for the rate audit of
    the corrected flow, and one at the recorded states for their Gram
    determinants and control fields. A block is flushed when it holds
    ``_DIAG_BLOCK`` steps, and at the end of the run. Every value is
    bitwise the one a per-step evaluation gives, and a non-finite frame
    raises what a per-step evaluation raises first.
    """

    def __init__(self, system: DissipativeSystem, flow: Flow, config: IntegratorConfig,
                 x0: np.ndarray):
        self.system = system
        self.flow = flow
        self.config = config
        self.x = x0                      # the state before the buffered steps
        self.g = system.dissipated(x0)   # and its dissipated value
        self.t, self.h, self.ends = [], [], []
        self.recs = [0]                  # recorded positions in [x, *ends]
        self.blocks = []

    def add(self, step: _Step) -> None:
        self.t.append(step.t)
        self.h.append(step.h)
        self.ends.append(step.x_new)
        if step.recorded:
            self.recs.append(len(self.ends))
        if len(self.ends) == _DIAG_BLOCK:
            self.flush()

    def flush(self) -> None:
        t, h, ends, recs = self.t, self.h, self.ends, self.recs
        if not ends and not recs:
            return
        self.t, self.h, self.ends, self.recs = [], [], [], []
        system, cfg = self.system, self.config
        pts = np.array([self.x, *ends])
        at = np.array(recs, dtype=int)
        audit = self.flow is Flow.PERTURBED and bool(ends)
        mids = system_frames(system, 0.5 * (pts[:-1] + pts[1:])) if audit else None
        frames = system_frames(system, pts[at])
        self._raise_first_nonfinite(mids, frames, t, h, ends, recs)

        g = np.empty(len(pts))
        g[0] = self.g
        g[1:] = system.dissipated.values(pts[1:])
        states = pts[at]
        conserved = np.empty((len(at), system.k))
        for j, f in enumerate(system.conserved):
            conserved[:, j] = f.values(states)
        v0 = _cofactor_from_frames(frames)
        q = (v0[:, None, :] @ frames.gmat @ v0[:, :, None])[:, 0, 0]
        H = np.array(h)
        T = np.array(t)
        block = {
            "times": np.concatenate(([0.0], T + H))[at],
            "states": states,
            "conserved_values": conserved,
            "dissipated_values": g[at],
            "det_full": frames.det_full(),
            "control_norm": np.sqrt(np.where(q < 0.0, 0.0, q)),
            "step_sizes": np.concatenate(([0.0], H))[at],
        }
        if audit:
            measured = (g[1:] - g[:-1]) / H
            predicted = -mids.det_full()
            scale = np.fmax(np.fmax(1.0, np.abs(measured)), np.abs(predicted))
            noise = (_RATE_NOISE_FACTOR * _row_norms(mids.diffs[:, mids.k])
                     * (cfg.abs_tol + cfg.rel_tol * _row_norms(pts[:-1])) / H)
            # h**2 on Python floats: numpy's square need not round as pow does
            h2 = np.array([hh ** 2 for hh in h])
            block.update(rate_times=T + 0.5 * H, rate_measured=measured,
                         rate_predicted=predicted,
                         rate_band=_RATE_CURVE_FACTOR * h2 * scale + noise)
        else:
            block.update(dict.fromkeys(_RATE_FIELDS, np.empty(0)))
        self.blocks.append(block)
        self.x = pts[-1]
        self.g = g[-1]

    def _raise_first_nonfinite(self, mids, frames, t, h, ends, recs) -> None:
        """Raise the per-step order's first non-finite frame of a block, if any.

        The diagnostics before that frame are flushed first, so their
        warnings are emitted as a per-step evaluation emits them. A
        corrected-flow record's frame is flagged only at a start where the
        run failed before its first step, and the unperturbed flow has no
        midpoints, so at most one of the two stacks holds a flagged row.
        """
        bad = mids if mids is not None and not mids.finite.all() else frames
        if bad.finite.all():
            return
        i = int(np.argmin(bad.finite))
        # keep the steps before the flagged frame and the records below it
        n_steps, below = (i, i + 1) if bad is mids else (recs[i], recs[i])
        n_recs = sum(r < below for r in recs)
        self.t, self.h, self.ends = t[:n_steps], h[:n_steps], ends[:n_steps]
        self.recs = recs[:n_recs]
        self.flush()
        raise NonFiniteState(str(_nonfinite_differential(bad.x[i])))

    def columns(self) -> dict:
        """The flushed blocks' :class:`Trajectory` arrays, each joined over the blocks."""
        return {name: np.concatenate([block[name] for block in self.blocks])
                for name in self.blocks[0]}


def integrate(system: DissipativeSystem, x0, config: IntegratorConfig,
              flow: Flow = Flow.PERTURBED,
              checkpoints=None, bound: float | None = None) -> "Trajectory":
    """Integrate either flow from x0 up to t_end.

    ``checkpoints`` are read off each step's continuous extension, not
    landed on: step control, and so every record, is the same with or
    without them. RK45 steps use the free fourth-order extension of
    Dormand-Prince, and dop853 steps its seventh-order one, whose three
    extra stages are evaluated only on the steps a checkpoint is read
    inside; RK4 steps and re-projected steps use the cubic Hermite on the
    end states and their right-hand sides. A checkpoint at a step's
    end gets that end state exactly. ``bound`` aborts with
    :class:`UnboundedTrajectory` when the state norm exceeds it.

    The steps are those of the one step loop, ``_lockstep``, on this one
    start, and a failure is the one it raises. The records and, on the
    corrected flow, the midpoint rate audit of every accepted step are
    evaluated in blocks of ``_DIAG_BLOCK`` steps on stacked frames (see
    ``_Diagnostics``); a step evaluates nothing beyond its stages, and no
    stage builds a frame. A run that fails flushes its pending block first,
    so a non-finite diagnostic frame before the failing step raises
    :class:`NonFiniteState` instead, as a per-step evaluation would. The
    steps past such a frame, up to the end of its block, are taken before
    it is seen.
    """
    x = as_point(x0, system.dim)

    cps = None
    cp_states = None
    next_cp = 0
    if checkpoints is not None:
        cps = np.asarray(checkpoints, dtype=float)
        _check_checkpoints(cps, config.t_end)
        cp_states = np.empty((cps.size, system.dim))
        if cps.size and cps[0] == 0.0:
            cp_states[0] = x
            next_cp = 1
    n_cps = 0 if cps is None else cps.size

    diag = _Diagnostics(system, flow, config, x)
    try:
        for step in _lockstep(system, x, config, flow, bound):
            diag.add(step)
            if next_cp < n_cps and (cps[next_cp] <= step.t_new or step.final):
                stop = (n_cps if step.final
                        else int(np.searchsorted(cps, step.t_new, side="right")))
                cp_states[next_cp:stop] = step.states_at(cps[next_cp:stop])
                next_cp = stop
    except GeodissError:
        # the diagnostics of the steps before the failure come first
        with _landing_scope(config):
            diag.flush()
        raise
    diag.flush()

    # t_end > 0, so the run took at least one step and the last one counts all
    return Trajectory(flow=flow, config=config, **diag.columns(),
                      checkpoint_times=cps, checkpoint_states=cp_states,
                      n_accepted=step.accepted, n_rejected=step.rejected)


@dataclass
class EnsembleRun:
    """Outcome of :func:`integrate_ensemble`, row i for start i.

    ``failures[i]`` is the class name of the :class:`IntegrationFailure`
    that ended start i, else None. For a start that finished, ``g_max`` is
    the max of the dissipated value over the states its solo
    :func:`integrate` records (the start, every ``record_every``-th accepted
    step and the last one), and ``final`` is its last state. A start that
    the stop test ended finished at the first accepted state the test held
    at: that state is its last, as if its run ended there. A failed
    start's ``final`` is its last accepted state. ``n_accepted`` and
    ``n_rejected`` count the steps taken and the tries rejected, up to the
    failure or the stop.
    """

    g_max: np.ndarray       # (m,)
    final: np.ndarray       # (m, n)
    n_accepted: np.ndarray  # (m,)
    n_rejected: np.ndarray  # (m,)
    failures: list          # (m,) class names or None


def integrate_ensemble(system: DissipativeSystem, starts, config: IntegratorConfig,
                       bound: float | None = None, t_ends=None, stop=None) -> EnsembleRun:
    """Integrate the corrected flow from every row of an (m, dim) stack, in lockstep.

    This drains the one step loop, ``_lockstep``, over all rows at once, in
    ``config``'s method: the certificates' ensembles run dop853 unless given
    a config, as they read only what is kept here and no state inside a
    step. ``t_ends``, one end time per row, replaces ``config.t_end``, so rows of
    several horizons share one call. An end time that is not positive, or
    whose adaptive first step lies below its step floor, is an input error
    refused before any evaluation. A failure ends its row only and is
    reported by class name. Every row i takes exactly the steps of its solo
    ``integrate(system, row, replace(config, t_end=t_ends[i]), bound=bound)``
    in the same arithmetic, and ends when it reaches its own end time. The
    dissipated value is evaluated at the states a solo run records a block
    of ``_DIAG_BLOCK`` of them at a time, as :func:`integrate`'s diagnostics are, and each
    row's max is taken over its own. The records of a row that has failed
    by then are evaluated under the numpy error state of a solo run's
    failure flush (``_landing_scope``), the others outside it, as a solo
    run's regular flushes are. Nothing else is recorded; see
    :class:`EnsembleRun`.

    ``stop``, when given, is a test ``stop(states) -> (rows,) bool`` on the
    new states of the rows that stepped in a try (never a start or a
    rejected try). A row it holds at ends there as finished: that state is
    its ``final`` and its last record, and its counters stop there, as
    those of its solo run up to that step. With ``stop=None`` every row
    runs to its end time.
    """
    x = as_stack(starts, system.dim)
    m = len(x)
    if t_ends is not None:
        t_ends = np.asarray(t_ends, dtype=float)
        if t_ends.shape != (m,):
            raise ValueError(f"expected {m} end times, got shape {t_ends.shape}")
        t_ends = t_ends.tolist()
    # input errors, refused before any evaluation: each distinct end time
    # once, in row order
    for t_end in dict.fromkeys([config.t_end] if t_ends is None else t_ends):
        _check_t_end(config, t_end)
    run = EnsembleRun(g_max=np.full(m, -np.inf), final=x.copy(),
                      n_accepted=np.zeros(m, dtype=int), n_rejected=np.zeros(m, dtype=int),
                      failures=[None] * m)
    owners, ends = [], []  # the recorded states not yet evaluated, and their rows
    held = 0

    def flush():
        owner = np.concatenate(owners)
        pts = np.concatenate(ends)
        # the records of a row that has failed by now are evaluated where its
        # solo run's failure flush evaluates them: a fixed step may have
        # landed on a finite but huge state, whose overflows warn no one;
        # the others as a solo run's regular flushes are
        failed = np.array([run.failures[i] is not None for i in owner.tolist()])
        g = np.empty(len(pts))
        for scope, sel in ((_NO_SCOPE, ~failed), (_landing_scope(config), failed)):
            if sel.any():
                with scope:
                    g[sel] = system.dissipated.values(pts[sel])
        # row by row in step order, as np.maximum would fold them; unlike
        # np.maximum, its unbuffered loop warns on a NaN
        with np.errstate(invalid="ignore"):
            np.maximum.at(run.g_max, owner, g)
        owners.clear()
        ends.clear()

    for rows, recorded, states in _lockstep(system, x, config, Flow.PERTURBED, bound, run,
                                            t_ends, stop):
        if len(recorded) == len(rows):
            owners.append(rows)
            ends.append(states)
        elif recorded:
            owners.append([rows[j] for j in recorded])
            ends.append(states[recorded])
        held += len(recorded)
        if held >= _DIAG_BLOCK:
            flush()
            held = 0
    if held:
        flush()
    run.failures = [None if exc is None else type(exc).__name__ for exc in run.failures]
    return run


def flow_agreement_band(config: IntegratorConfig, state_norm: float) -> float:
    """Allowed flow disagreement for comparisons: 10x the accumulated local tolerance."""
    return 10.0 * config.local_tol(state_norm) * config.t_end
