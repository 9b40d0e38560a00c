"""The plan walk against the scalar reference, on adversarial specs.

``SessionGenerator.append_user`` builds a user's plans in passes — one
selection walk, one ``apb:``/``size:`` draw per entry, one chunk-cut
loop — and ``BlockColumns.assemble`` lays the rows out once per block.
The golden tests pin that against ``reference_scalar.session_ops`` on
the scenarios; this property does it on specs built to hit the edges
the passes have and the scenarios rarely reach:

* constant access sizes of 1 and of 2**53 and more (float prefix sums
  stop being exact there), and refills capped small enough that
  segments cross refill edges;
* files of size 1, budgets that are exact multiples of the file size
  (no remainder pass), zero and negative ratios, new files whose
  budget is within their target, empty pools;
* ``max_open_files`` 1–8, both access patterns, the phase model;
* non-finite and negative draws from a palette distribution, which a
  GDS table cannot produce.

Each example compares, per user, the reference against the per-session
calls (``generate_session_batch``, which carries unused chunks from one
call to the next) and against the fused user batch, and a block of all
users through one rebound kernel against blocks of one.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseModel, synthesis
from repro.core.fsc import FileSystemLayout
from repro.core.spec import FileCategory, UsageSpec, UserTypeSpec
from repro.core.synthesis import BlockColumns, SessionGenerator
from repro.distributions import Constant, RandomStreams, ShiftedExponential

from .reference_scalar import session_ops


class Palette:
    """Uniform over fixed values, NaN, infinities and negatives allowed.

    One ``rng.random`` double per variate, so blocks of any size serve
    the same sequence (the ``BatchSampler`` contract).
    """

    def __init__(self, *values: float):
        self.values = np.array(values, dtype=np.float64)

    def sample(self, rng, size=None):
        picks = np.asarray(rng.random(size)) * len(self.values)
        return self.values[picks.astype(np.int64)]

    def mean(self) -> float:
        return float(np.mean(self.values))

    def __repr__(self) -> str:
        return f"Palette{tuple(self.values.tolist())}"


NAN, INF = float("nan"), float("inf")

KEYS = ("REG:USER:RDONLY", "REG:USER:RD-WRT", "REG:USER:NEW",
        "REG:USER:TEMP", "REG:OTHER:RDONLY", "DIR:USER:RDONLY")

COUNTS = st.sampled_from([
    Constant(1.0), Constant(2.0), Palette(NAN, -2.0, 0.4, 1.0, 3.0)])
RATIOS = st.sampled_from([
    Constant(0.0), Constant(1.0), Constant(2.0), Constant(-1.0),
    Palette(-1.0, 0.0, 0.5, 1.0, 2.0, 3.25, NAN, INF)])
TARGETS = st.sampled_from([
    Constant(1.0), Constant(7.0),
    Palette(NAN, -4.0, 0.3, 1.0, 2.0, 9.0, 40.0)])
ACCESS = st.sampled_from([
    Constant(1.0), Constant(5.0), Constant(2.0**53), Constant(3 * 2.0**53),
    Constant(2.0**60), ShiftedExponential(6.0),
    Palette(NAN, -3.0, 0.4, 1.0, 4.0, 17.0, INF)])
THINKS = st.sampled_from([
    Constant(0.0), Palette(NAN, -1.0, 0.0, 2.5, 700.0, INF)])
POOL = st.lists(st.sampled_from([1, 2, 3, 8, 40]), max_size=9)


@st.composite
def workloads(draw):
    """A user type, a layout for its pools, and how to run them."""
    n_users = draw(st.integers(1, 3))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4,
                         unique=True))
    usage = tuple(
        UsageSpec(
            category=FileCategory.from_key(key),
            access_per_byte=draw(RATIOS),
            file_count=draw(COUNTS),
            file_size=draw(TARGETS),
            fraction_of_users=draw(st.sampled_from([1.0, 1.0, 0.6, 0.0])),
        )
        for key in keys
    )
    user_type = UserTypeSpec(
        name="edge", fraction=1.0, usage=usage,
        think_time=draw(THINKS), access_size=draw(ACCESS),
        max_open_files=draw(st.integers(1, 8)),
    )
    # Each pool category gets 0-9 files in index order; file i belongs
    # to user i % n_users, so some users' pools are empty and pools of
    # one category differ in length between users.
    layout = FileSystemLayout(n_users, {
        spec.category: draw(POOL) for spec in usage
        if not spec.category.creates_files
    })
    return dict(
        user_type=user_type, layout=layout, n_users=n_users,
        sessions=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        access_pattern=draw(st.sampled_from(["sequential", "random"])),
        phases=draw(st.booleans()),
        refill_cap=draw(st.sampled_from([3, 17, 4096])),
    )


def kernel(w, user_id):
    return SessionGenerator(
        w["user_type"], w["layout"], RandomStreams(w["seed"]), user_id,
        access_pattern=w["access_pattern"],
        phase_model=PhaseModel() if w["phases"] else None,
    )


def check_walk(w):
    sessions = range(w["sessions"])
    cols = BlockColumns()
    pooled = None
    for user_id in range(w["n_users"]):
        scalar = kernel(w, user_id)
        expected = [op for s in sessions for op in session_ops(scalar, s)]
        per_call = kernel(w, user_id)
        assert expected == [
            op for s in sessions
            for op in per_call.generate_session_batch(s).iter_session_ops()]
        batch, _ = kernel(w, user_id).generate_user_batch(sessions)
        assert expected == list(batch.iter_session_ops())
        if pooled is None:
            pooled = kernel(w, user_id)
        else:
            pooled.rebind_user(
                user_id, PhaseModel() if w["phases"] else None)
        pooled.append_user(sessions, cols)
    block = cols.assemble()
    step = w["sessions"]
    for user_id in range(w["n_users"]):
        lo = cols.bounds[user_id * step]
        hi = cols.bounds[(user_id + 1) * step]
        alone, _ = kernel(w, user_id).generate_user_batch(sessions)
        assert (list(block.select(slice(lo, hi)).iter_session_ops())
                == list(alone.iter_session_ops()))


@given(w=workloads())
@settings(max_examples=150, deadline=None)
def test_walk_matches_reference_on_edge_specs(w):
    with mock.patch.object(synthesis, "_CHUNK_REFILL_CAP", w["refill_cap"]):
        check_walk(w)
