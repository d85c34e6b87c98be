"""The conjugated evolution web over the strengthened/weakened pairing.

With real scalars the ambient pairing is nondegenerate, so continuous
functionals collapse onto coefficient vectors and the strengthened
space, the ambient space, and the antidual survive as three Gram
weightings of one coefficient space: exp(-2 log d), identity, and
exp(+2 log d) over the decay diagonal d.  The antitransposed decay map
is then the plain transpose (the decay diagonal itself), the Riesz map
is its square, kept as the log diagonal R = L + L (L = log d), and six
conjugated evolutions arise from one forward step:

  u_ext : the plain step, extended to functionals;
  w     : decay-conjugated step (the contraction semigroup);
  v     : inverse conjugation by the antitransposed decay map;
  x     : Riesz conjugation of w (equal to v, which is verified);
  y     : decay conjugation of u_ext (equal to w in this realization);
  z     : Riesz conjugation of u_ext.

Every evolution is U^t on the margin-safe labels, a
:class:`~timeop.cascade.WeightedShift`, or a diagonal conjugation of it.
Weights are compared as log weights, never formed as floats, so v and x
are checked however far past the float range they reach; only a window
whose Riesz log weights leave it is refused.  Deviations between
operators that the theory says coincide are measured in the antidual
operator metric (relative weight deviation), where the conjugated
families are uniformly bounded; each witness for an asserted inequality
is the label with the largest log gap between its pair, reported as the
relative deviation |a - b| / max(a, b) of the two weights.  The Riesz
twist z is checked against the closed form 2 (L(a+t) - L(a)) of its
weights, L read from the profile, and against the Jordan type of the
step (the ranks of its powers), read off the index map: one gather
per power follows the chains, and one label mask of their ends, reset
per power, counts the distinct endpoints.  The webs of several times take their
evolutions from one joined U^t, and their dual-Markov traces, U^(kt)
conjugated by the log decay diagonal on both sides, from another.
:func:`verify_webs` returns each web's ``theorem`` report record, a
plain dict.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeSystem, MarginError
from .profiles import DecayOperator

__all__ = [
    "OperatorWeb",
    "build_operator_web",
    "build_operator_webs",
    "verify_web",
    "verify_webs",
]

# pass thresholds of verify_web's record: the coinciding pairs (v and x,
# z and its closed form) agree within IDENTITY_TOL, each separating
# witness reaches WITNESS_FLOOR, and z's Jordan type is the step's
# within SPECTRUM_TOL
IDENTITY_TOL = 1e-10
WITNESS_FLOOR = 1e-6
SPECTRUM_TOL = 1e-8
# block steps of the dual-Markov traces, fewer where the window is narrow
DUAL_TRACE_STEPS = 3


class OperatorWeb:
    """Six conjugated evolutions at one time, on the margin-safe labels.

    ``evolutions`` maps each name to a
    :class:`~timeop.cascade.WeightedShift` whose sources are the safe
    labels, a prefix of the index order.  With U = U^t, L the log decay
    diagonal and R = L + L the log Riesz diagonal, the weight of label
    i, moved onto k, is:

      u_ext : U                    0
      w     : U.conjugate(L, -L)   L[k] - L[i]
      v     : U.conjugate(-L, L)   L[i] - L[k]
      x     : w.conjugate(-R, R)   w + (R[i] - R[k])   (Riesz conjugation of w)
      y     : w                                        (decay conjugation of u_ext)
      z     : U.conjugate(R, -R)   R[k] - R[i]         (Riesz conjugation of u_ext)
    """

    NAMES = ("u_ext", "w", "v", "x", "y", "z")

    def __init__(self, decay: DecayOperator, t: int, evolutions: dict):
        self.decay = decay
        self.system: CascadeSystem = decay.system
        self.t = int(t)
        self.evolutions = evolutions

    def weight(self, name: str, label) -> float:
        """Weight carried by a safe label under the named evolution.

        A weight past the float range reads inf.
        """
        i = self.system.index_of(label)
        log_weights = self.evolutions[name].log_weights
        if i >= log_weights.size:
            raise MarginError(f"label {self.system.label_text(i)} is not t-margin safe")
        with np.errstate(over="ignore"):
            return float(np.exp(log_weights[i]))


def build_operator_web(decay: DecayOperator, t: int) -> OperatorWeb:
    """The one-time case of :func:`build_operator_webs`."""
    return build_operator_webs(decay, [t])[0]


def build_operator_webs(decay: DecayOperator, times) -> list:
    """Build the six evolutions at each t of ``times`` from U^t on the safe labels.

    U^t on each t-margin, joined over the times, is conjugated once per
    weighting, and each web takes its time's part of each.  A safe label
    whose image is truncated carries NaN in every evolution but u_ext.
    R[i] - R[k] is exactly -2 w, so x is v bit for bit.  A time without
    safe labels is refused, then a window whose Riesz log weights are
    not all finite floats, naming the first age past the range.
    """
    if min(times, default=0) < 0:
        raise ValueError("the web is built for t >= 0")
    system = decay.system
    u = system.step(times)
    offsets = u.offsets.tolist()
    for t, a, b in zip(times, offsets, offsets[1:]):
        if a == b:
            raise MarginError(f"no labels admit a {t}-step margin on this window")
    log_diag = decay.log_diag
    with np.errstate(over="ignore"):  # a log weight past half the float range doubles to -inf
        log_riesz = log_diag + log_diag
    past = np.flatnonzero(~np.isfinite(log_riesz))
    if past.size:
        raise MarginError(f"the Riesz log weight 2 log lambda at age {system.ages[past[0]]} "
                          "is not a finite float on this window")
    w = u.conjugate(log_diag, -log_diag)
    joined = (u, w, u.conjugate(-log_diag, log_diag), w.conjugate(-log_riesz, log_riesz),
              u.conjugate(log_riesz, -log_riesz))
    webs = []
    for t, a, b in zip(times, offsets, offsets[1:]):
        u_ext, w_t, v, x, z = (shift.take(slice(a, b)) for shift in joined)
        webs.append(OperatorWeb(decay, t, {"u_ext": u_ext, "w": w_t, "v": v, "x": x, "y": w_t,
                                           "z": z}))
    return webs


def _jordan_type_gap(web: OperatorWeb) -> float:
    """Largest gap between the ranks of C^k and those of the step.

    C is the compression of z to the safe labels.  Each column of C
    holds at most one entry, so the rank of C^k is the number of
    distinct endpoints of the k-step chains that start at the safe
    labels and follow z's targets through finite z weights and safe
    images, marked per power on one reused label mask.  The compressed
    step has rank #{i : age_i + (k+1) t <= hi}, for k = 1 up to
    nilpotency; the labels are age-major, so that count is a search of
    the sorted ages.
    """
    system = web.system
    z = web.evolutions["z"]
    hi, safe = system.window.hi, z.sources.size
    # the safe labels are a prefix; z is NaN at a truncated image, and a
    # chain that breaks moves onto the extra label ``safe`` and stays
    nxt = np.append(np.where(np.isfinite(z.log_weights) & (z.targets < safe), z.targets, safe),
                    safe)
    powers = np.arange(1, (hi - system.window.lo) // web.t + 2)
    # one gather per power moves the chain ends, and one mask counts them
    ranks, pos, ends = [], z.sources, np.zeros(nxt.size, dtype=bool)
    for _ in powers:
        pos = nxt[pos]
        ends[:] = False
        ends[pos] = True
        ranks.append(np.count_nonzero(ends[:safe]))
    expected = np.searchsorted(system.ages, hi - (powers + 1) * web.t, side="right")
    return float(np.abs(np.array(ranks) - expected).max(initial=0))


def verify_web(web: OperatorWeb) -> dict:
    """The one-web case of :func:`verify_webs`."""
    return verify_webs([web])[0]


def verify_webs(webs) -> list:
    """Verify the six relations of each conjugated evolution web, as a report record.

    The webs are built from one decay operator.  Each record holds the
    time ``t`` and the six parts: (1) v and x coincide, measured in the
    antidual operator metric (``v_equals_x_deviation``); (2) the v-route
    traces, transported by the Riesz map, decay monotonically at every
    band label (``dual_markov_monotone``; ``dual_markov_traces`` is the
    band indicator's trace); (3, 4, 5) witnesses separate v from u_ext,
    y from the plain step, and w from z (``v_vs_u_witness``,
    ``y_vs_u_witness``, ``w_vs_z_witness``, each a ``{"label",
    "deviation"}`` dict); (6) z is conjugate to u_ext, checked by the
    Jordan type of the safe compression (``z_spectrum_deviation``, the
    largest gap between the ranks of its powers, counted along the
    index map, and those of the step) and by the relative deviation of
    the composed z weights from the closed form 2 (L(a+t) - L(a)), L
    read from the profile (``z_conjugacy_deviation``).  ``all_passed``
    applies the module thresholds ``IDENTITY_TOL``, ``WITNESS_FLOOR``
    and ``SPECTRUM_TOL``.

    The times must be positive: at t = 0 every evolution is the identity
    and the inequality parts are degenerate.
    """
    if any(web.t == 0 for web in webs):
        raise ValueError("t = 0 is degenerate for the witness parts; build the web at t >= 1")
    if any(web.decay is not webs[0].decay for web in webs):
        raise ValueError("the webs must share one decay operator")
    if not webs:
        return []
    # v-route traces, transported isometrically by the Riesz map: the
    # coefficient of label i after k blocks carries exp(L(i) + L(i_k)),
    # U^(kt) conjugated by L on both sides (-inf at a truncated image).
    # The trace of every f on the band decays exactly when each label's
    # log weight does; the band indicator's is recorded.  The U^(kt) of
    # every web, on its band, are one joined value.
    system, decay = webs[0].system, webs[0].decay
    span = system.window.hi - system.window.lo
    steps = [min(DUAL_TRACE_STEPS, max(span // web.t, 1)) for web in webs]
    bands = [system.margin(n * web.t) for n, web in zip(steps, webs)]
    dual = system.step([k * web.t for n, web in zip(steps, webs) for k in range(n + 1)],
                       [band for n, band in zip(steps, bands) for _ in range(n + 1)])
    all_logs = dual.conjugate(decay.log_diag, decay.log_diag).log_weights
    all_logs[np.isnan(all_logs)] = -np.inf
    records, end = [], 0
    for web, n, band in zip(webs, steps, bands):
        logs = all_logs[end:end + (n + 1) * band.size].reshape(n + 1, band.size)
        end += logs.size
        records.append(_web_record(web, logs))
    return records


def _web_record(web: OperatorWeb, logs) -> dict:
    """The :func:`verify_webs` record of a web, ``logs`` its ``(block, band label)`` dual table."""
    system, decay = web.system, web.decay
    log_weights = {name: shift.log_weights for name, shift in web.evolutions.items()}
    safe = web.evolutions["u_ext"].sources

    v_equals_x = float(np.abs(np.expm1(log_weights["x"] - log_weights["v"])).max())
    monotone = bool((logs[1:] <= logs[:-1]).all())
    # each separating witness is the safe label with the largest log gap
    # between its pair; weights a, b differ there by |a - b| / max(a, b)
    gaps = np.abs([log_weights[a] - log_weights[b]
                   for a, b in (("v", "u_ext"), ("y", "u_ext"), ("w", "z"))])
    witnesses = [{"label": system.label_text(safe[i]), "deviation": float(-np.expm1(-row[i]))}
                 for row, i in zip(gaps, gaps.argmax(axis=1))]
    spectrum = _jordan_type_gap(web)
    closed_form = 2.0 * (decay.profile.log_value(system.ages[safe] + web.t) - decay.log_diag[safe])
    # the sum along the last axis of a C-contiguous block is each row's 1-D
    # sum; a block gathered by a column index would be Fortran-ordered.
    # Near the float edge 2 logs may overflow to -inf, a weight of 0.0; on
    # a defective map z may leave its closed form past the float range, a
    # conjugacy deviation of inf
    with np.errstate(under="ignore", over="ignore"):
        traces = np.sqrt(np.exp(2.0 * logs).sum(axis=1)).tolist()
        conjugacy = float(np.abs(np.expm1(log_weights["z"] - closed_form)).max())

    return {
        "t": web.t,
        "v_equals_x_deviation": v_equals_x,
        "dual_markov_monotone": monotone,
        "dual_markov_traces": tuple(traces),
        "v_vs_u_witness": witnesses[0],
        "y_vs_u_witness": witnesses[1],
        "w_vs_z_witness": witnesses[2],
        "z_spectrum_deviation": spectrum,
        "z_conjugacy_deviation": conjugacy,
        "all_passed": (v_equals_x <= IDENTITY_TOL and monotone
                       and all(w["deviation"] >= WITNESS_FLOOR for w in witnesses)
                       and spectrum <= SPECTRUM_TOL and conjugacy <= IDENTITY_TOL),
    }
