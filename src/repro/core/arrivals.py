"""Temporal load model: session arrivals, diurnal profiles, user churn.

Everything before this module answers *what* a virtual user does and
*how long* each call takes; nothing answered *when* users show up.  Real
populations do not start at clock 0 in lockstep — users log in spread
over the day, work in sessions, log out, and come back later, so the
offered load varies with time.  This module supplies that missing axis:

* :class:`ArrivalModel` — per-user *first-login offset* and
  *inter-session gap* distributions.  All draws come from two new named
  streams in the user's existing stream family
  (``fork(f"user-{u}").get("first-login"|"session-gap")``), so a user's
  arrival schedule is a pure function of ``(root seed, user id)`` —
  seed-deterministic, shard-count-invariant, and independent of which
  execution backend replays it.  Adding the streams perturbs nothing:
  synthesis streams are named and independent, so the op stream with
  arrivals enabled is byte-identical to the op stream without.
* :class:`LoadProfile` — a piecewise-constant intensity curve over a
  period (a day, by default).  With a profile attached, first logins
  are drawn by **inverse-CDF time warping**: one uniform variate maps
  through the inverse of the normalised cumulative intensity, which
  thins arrivals where the curve is low and concentrates them where it
  is high.  Named profiles (``office-hours``, ``nightly``, ``evening``,
  ``uniform``) cover the common diurnal shapes; scenarios may attach
  their own.
* :class:`SessionSchedule` — the resolved plain-data timeline one user
  follows: the login offset plus the logout→next-login gap after each
  session (the *churn*: a user leaves and returns rather than running
  sessions back to back).  Schedules are computed once, up front, and
  handed to every backend, so the DES (which delays each user process
  by its offset), the scalar fast replay (which seeds the user's clock
  from it) and the columnar replay (which folds it into its cumsum)
  time sessions off the *same* floats.

This is the LWS-style explicit inter-session timing (arXiv:2301.08851)
grafted onto the thesis pipeline, with PBench-style time-varying
offered load (arXiv:2506.16379) expressible as a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from ..distributions import (
    Distribution,
    RandomStreams,
    ShiftedExponential,
    Uniform,
    from_jsonable,
    to_jsonable,
)

__all__ = [
    "HOUR_US",
    "DAY_US",
    "ArrivalError",
    "LoadProfile",
    "SessionSchedule",
    "ArrivalModel",
    "DEFAULT_ARRIVALS",
    "get_profile",
    "profile_names",
    "register_profile",
    "arrival_model_to_jsonable",
    "arrival_model_from_jsonable",
]

HOUR_US = 3_600e6
"""One hour in simulated microseconds."""

DAY_US = 24 * HOUR_US
"""One day in simulated microseconds (the default profile period)."""


class ArrivalError(ValueError):
    """Raised for invalid load profiles or arrival models."""


class LoadProfile:
    """A piecewise-constant arrival-intensity curve over one period.

    ``edges_us`` are the segment boundaries (increasing, starting at 0);
    ``weights`` the relative intensity on each segment.  Only the
    *shape* matters: the curve is normalised into a probability density
    over ``[0, period_us)`` and sampled by inverse transform
    (:meth:`warp`), so doubling every weight changes nothing while
    doubling one segment's weight doubles its share of arrivals.
    """

    __slots__ = ("name", "edges_us", "weights", "_cum")

    def __init__(self, edges_us: Iterable[float], weights: Iterable[float],
                 name: str = ""):
        edges = np.asarray(list(edges_us), dtype=np.float64)
        w = np.asarray(list(weights), dtype=np.float64)
        if len(edges) != len(w) + 1:
            raise ArrivalError(
                "need len(edges_us) == len(weights) + 1, got "
                f"{len(edges)} edges for {len(w)} weights"
            )
        if len(w) == 0:
            raise ArrivalError("profile needs at least one segment")
        if not np.all(np.isfinite(edges)) or edges[0] != 0.0 \
                or np.any(np.diff(edges) <= 0):
            raise ArrivalError(
                "edges_us must be finite, start at 0 and strictly increase"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0) or not np.any(w > 0):
            raise ArrivalError(
                "weights must be finite, >= 0, with at least one > 0"
            )
        self.name = name
        self.edges_us = edges
        self.weights = w
        cum = np.empty(len(w) + 1, dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(w * np.diff(edges), out=cum[1:])
        self._cum = cum

    @classmethod
    def from_hourly(cls, weights: Iterable[float], hour_us: float = HOUR_US,
                    name: str = "") -> "LoadProfile":
        """A profile of equal ``hour_us``-wide segments (24 for a day)."""
        w = list(weights)
        edges = [i * float(hour_us) for i in range(len(w) + 1)]
        return cls(edges, w, name=name)

    @property
    def period_us(self) -> float:
        """The curve's period (the last edge)."""
        return float(self.edges_us[-1])

    def intensity_at(self, t_us: float) -> float:
        """Relative intensity at ``t_us`` (periodic), normalised so a
        flat profile reads 1.0 everywhere."""
        t = float(t_us) % self.period_us
        seg = int(np.searchsorted(self.edges_us, t, side="right")) - 1
        seg = min(max(seg, 0), len(self.weights) - 1)
        mean = self._cum[-1] / self.period_us
        return float(self.weights[seg]) / mean

    def warp(self, u: float) -> float:
        """Inverse-CDF map of one uniform ``u`` ∈ [0, 1] to an arrival
        time in ``[0, period_us]``.

        Mass lands proportionally to each segment's ``weight × width``;
        zero-weight segments receive no arrivals.  Monotone in ``u``.
        """
        return float(self.warp_array(np.array([u], dtype=np.float64))[0])

    def warp_array(self, us: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`warp`."""
        u = np.clip(np.asarray(us, dtype=np.float64), 0.0, 1.0)
        target = u * self._cum[-1]
        seg = np.searchsorted(self._cum, target, side="right") - 1
        seg = np.clip(seg, 0, len(self.weights) - 1)
        # Within a segment, mass accrues at `weight` per microsecond.
        density = np.where(self.weights[seg] > 0, self.weights[seg], 1.0)
        t = self.edges_us[seg] + (target - self._cum[seg]) / density
        # u == 1.0 lands past the last positive segment's mass; pin it
        # to that segment's right edge (the period for a positive tail).
        return np.minimum(t, self.edges_us[seg + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoadProfile):
            return NotImplemented
        return (
            np.array_equal(self.edges_us, other.edges_us)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # frozen-dataclass fields need hashability
        return hash((self.edges_us.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        label = self.name or f"{len(self.weights)} segments"
        return f"LoadProfile({label!r}, period={self.period_us:.0f}µs)"

    def describe(self) -> str:
        """Short human-readable summary."""
        hours = self.period_us / HOUR_US
        return (f"{self.name or 'custom'} profile, "
                f"{len(self.weights)} segments over {hours:g}h")

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_jsonable`)."""
        return {
            "name": self.name,
            "edges_us": self.edges_us.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_jsonable(cls, payload: dict[str, Any]) -> "LoadProfile":
        """Decode :meth:`to_jsonable` output."""
        try:
            return cls(payload["edges_us"], payload["weights"],
                       name=str(payload.get("name", "")))
        except ArrivalError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            # ValueError: NumPy refusing a string or a nested list.
            raise ArrivalError(f"bad load-profile payload: {exc}") from exc


@dataclass(frozen=True)
class SessionSchedule:
    """One user's resolved timeline: login offset + per-session gaps.

    ``gaps_us[i]`` is the pause after session ``i`` ends (the user's
    logout-to-next-login churn); indexing past the tuple returns 0, so
    executors need not special-case the final session.
    """

    offset_us: float
    gaps_us: tuple[float, ...]

    def gap_after(self, session_id: int) -> float:
        """The gap following session ``session_id`` (0.0 past the end)."""
        if 0 <= session_id < len(self.gaps_us):
            return self.gaps_us[session_id]
        return 0.0


def _clamp_us(value: float) -> float:
    """A finite, non-negative duration (same rule as think-time draws)."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        return 0.0
    return value


@dataclass(frozen=True)
class ArrivalModel:
    """When users log in: first-login offsets and inter-session gaps.

    Without a profile, the first login is one draw from ``first_login``.
    With a profile, the first login is one uniform draw warped through
    the profile's inverse cumulative intensity — the profile *is* the
    arrival-time distribution over its period, which is exactly what a
    normalised intensity curve means.  Gaps are always plain
    ``session_gap`` draws, pre-drawn as one block — one per gap
    *between* sessions (``sessions - 1``), since a gap separates two
    logins and no gap follows the final logout.

    Determinism contract: :meth:`schedule` consumes only the dedicated
    ``first-login`` / ``session-gap`` streams of the user's existing
    stream family, in a fixed draw order, so the schedule depends on
    ``(root seed, user id, sessions)`` alone — never on the shard
    topology, the backend, or other users.
    """

    first_login: Distribution = field(
        default_factory=lambda: Uniform(0.0, DAY_US))
    session_gap: Distribution = field(
        default_factory=lambda: ShiftedExponential(30 * 60e6))
    profile: "LoadProfile | None" = None

    def with_profile(self, profile: "LoadProfile | None") -> "ArrivalModel":
        """This model with ``profile`` swapped in."""
        return replace(self, profile=profile)

    def schedule(self, streams: RandomStreams, user_id: int,
                 sessions: int) -> SessionSchedule:
        """Resolve one user's :class:`SessionSchedule`.

        ``streams`` is the *root* stream factory (the one synthesis
        forks per user); the model forks the same ``user-{id}`` family
        and draws from its own named streams, so arrivals never perturb
        the op stream.
        """
        if sessions < 0:
            raise ArrivalError(f"sessions must be >= 0, got {sessions}")
        fork = streams.fork(f"user-{user_id}")
        login_rng = fork.get("first-login")
        if self.profile is not None:
            offset = self.profile.warp(float(login_rng.random()))
        else:
            offset = _clamp_us(self.first_login.sample(login_rng))
        if sessions <= 1:
            return SessionSchedule(offset, ())
        raw = np.atleast_1d(np.asarray(
            self.session_gap.sample(fork.get("session-gap"),
                                    size=sessions - 1),
            dtype=np.float64,
        ))
        gaps = tuple(_clamp_us(g) for g in raw.tolist())
        return SessionSchedule(offset, gaps)

    def describe(self) -> str:
        """Short human-readable summary."""
        if self.profile is not None:
            login = self.profile.describe()
        else:
            login = self.first_login.describe()
        return f"logins: {login}; gaps: {self.session_gap.describe()}"


DEFAULT_ARRIVALS = ArrivalModel()
"""Uniform-over-a-day logins, exponential ~30 min inter-session gaps."""


# ---------------------------------------------------------------------------
# Named diurnal profiles
# ---------------------------------------------------------------------------

_PROFILES: dict[str, LoadProfile] = {}


def register_profile(profile: LoadProfile,
                     replace_existing: bool = False) -> LoadProfile:
    """Add a named profile to the registry."""
    if not profile.name:
        raise ArrivalError("only named profiles can be registered")
    if not replace_existing and profile.name in _PROFILES:
        raise ArrivalError(f"profile {profile.name!r} already registered")
    _PROFILES[profile.name] = profile
    return profile


def get_profile(name: str) -> LoadProfile:
    """Look a profile up by name."""
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise ArrivalError(
            f"unknown load profile {name!r}; registered: {known}"
        ) from None


def profile_names() -> tuple[str, ...]:
    """All registered profile names, sorted."""
    return tuple(sorted(_PROFILES))


register_profile(LoadProfile.from_hourly([1.0] * 24, name="uniform"))
# The campus 9-to-5: ramp-in from 8, morning peak, lunch dip, afternoon
# peak, long evening tail — the classic double hump.
register_profile(LoadProfile.from_hourly(
    [0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.4, 1.0, 2.4, 3.4, 3.2, 2.6,
     1.8, 2.4, 3.2, 3.0, 2.4, 1.4, 0.9, 0.8, 0.7, 0.6, 0.4, 0.3],
    name="office-hours",
))
# Batch window: jobs land overnight (22:00–06:00), near-silence by day.
register_profile(LoadProfile.from_hourly(
    [3.0, 3.2, 3.2, 3.0, 2.4, 1.6, 0.6, 0.1, 0.0, 0.0, 0.0, 0.0,
     0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 2.4, 3.0],
    name="nightly",
))
# Consumer evening peak: low mornings, climb through the afternoon,
# maximum 19:00–22:00.
register_profile(LoadProfile.from_hourly(
    [0.6, 0.3, 0.2, 0.1, 0.1, 0.2, 0.4, 0.7, 0.9, 1.0, 1.1, 1.2,
     1.4, 1.4, 1.5, 1.7, 2.0, 2.5, 3.0, 3.5, 3.6, 3.2, 2.2, 1.2],
    name="evening",
))


# ---------------------------------------------------------------------------
# JSON codec (the specjson "arrivals" block)
# ---------------------------------------------------------------------------


def arrival_model_to_jsonable(model: ArrivalModel) -> dict[str, Any]:
    """Encode an :class:`ArrivalModel` as a plain-JSON dict."""
    return {
        "first_login": to_jsonable(model.first_login),
        "session_gap": to_jsonable(model.session_gap),
        "profile": (model.profile.to_jsonable()
                    if model.profile is not None else None),
    }


def arrival_model_from_jsonable(payload: dict[str, Any]) -> ArrivalModel:
    """Decode :func:`arrival_model_to_jsonable` output."""
    if not isinstance(payload, dict):
        raise ArrivalError(
            "arrivals payload must be an object, got "
            f"{type(payload).__name__}"
        )
    try:
        profile_payload = payload.get("profile")
        return ArrivalModel(
            first_login=from_jsonable(payload["first_login"]),
            session_gap=from_jsonable(payload["session_gap"]),
            profile=(LoadProfile.from_jsonable(profile_payload)
                     if profile_payload else None),
        )
    except KeyError as exc:
        raise ArrivalError(f"arrivals payload missing {exc}") from exc
