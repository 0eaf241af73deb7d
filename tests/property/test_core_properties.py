"""Property-based tests for RFP headers, fetch planning, and parameters."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    RESPONSE_HEADER_BYTES,
    RequestHeader,
    ResponseHeader,
    plan_fetch,
    reads_required,
    select_parameters,
)
from repro.core.params import ParameterChoice, fetch_size_grid


def reference_select(sizes, iops_at, retry_upper, lower, upper, step):
    """Eq. 2 enumeration as first written: ``reads_required`` once per
    (R, F, size).  The oracle for :func:`select_parameters`."""
    scores = {}
    best = (-1.0, 0, 0)
    for retry in range(1, retry_upper + 1):
        for fetch in fetch_size_grid(lower, upper, step):
            rate = iops_at(retry, fetch)
            total = 0.0
            for size in sizes:
                total += rate if reads_required(size, fetch) == 1 else rate / 2.0
            mean = total / len(sizes)
            scores[(retry, fetch)] = mean
            candidate = (mean, retry, -fetch)
            if candidate > best:
                best = candidate
    _, retry, negative_fetch = best
    return ParameterChoice(
        retry_bound=retry,
        fetch_size=-negative_fetch,
        expected_mops=scores[(retry, -negative_fetch)],
        scores=scores,
    )


class TestHeaderProperties:
    @given(st.integers(0, 1), st.integers(0, 2**31 - 1))
    def test_request_header_round_trip(self, status, size):
        header = RequestHeader(status=status, size=size)
        assert RequestHeader.unpack(header.pack()) == header

    @given(st.integers(0, 1), st.integers(0, 2**31 - 1), st.integers(0, 0xFFFF))
    def test_response_header_round_trip(self, status, size, time_tenths):
        header = ResponseHeader(status=status, size=size, time_tenths_us=time_tenths)
        assert ResponseHeader.unpack(header.pack()) == header

    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_encode_time_saturates_and_stays_nonnegative(self, time_us):
        encoded = ResponseHeader.encode_time(time_us)
        assert 0 <= encoded <= 0xFFFF
        # Within representable range the decode error is at most 0.05 us.
        if time_us <= 6553.5:
            assert abs(encoded / 10.0 - time_us) <= 0.05 + 1e-9


class TestFetchPlanProperties:
    sizes = st.integers(min_value=0, max_value=1 << 20)
    fetches = st.integers(min_value=RESPONSE_HEADER_BYTES + 1, max_value=4096)

    @given(sizes, fetches)
    def test_plan_tiles_the_response_exactly(self, total, fetch):
        plan = plan_fetch(total, fetch)
        assert plan.first_covers + plan.remainder_bytes == total
        assert plan.first_covers >= 0
        assert plan.remainder_bytes >= 0

    @given(sizes, fetches)
    def test_remainder_starts_right_after_first_read(self, total, fetch):
        plan = plan_fetch(total, fetch)
        if plan.remainder_bytes:
            assert plan.remainder_offset == RESPONSE_HEADER_BYTES + plan.first_covers

    @given(sizes, fetches)
    def test_reads_required_consistent_with_plan(self, total, fetch):
        plan = plan_fetch(total, fetch)
        expected = 1 if plan.remainder_bytes == 0 else 2
        assert reads_required(total, fetch) == expected

    @given(sizes, fetches)
    def test_one_read_iff_covered(self, total, fetch):
        covered = total <= fetch - RESPONSE_HEADER_BYTES
        assert (reads_required(total, fetch) == 1) == covered


class TestParameterSelectionProperties:
    @given(
        st.lists(st.integers(0, 4096), min_size=1, max_size=50),
        st.integers(1, 8),
    )
    def test_selection_stays_inside_the_bounds(self, sizes, retry_upper):
        choice = select_parameters(
            sizes,
            lambda r, f: 10.0 / (1 + f / 1024.0),
            retry_upper,
            256,
            1024,
            size_step=128,
        )
        assert 1 <= choice.retry_bound <= retry_upper
        assert 256 <= choice.fetch_size <= 1024
        assert choice.expected_mops > 0
        # The chosen pair really is a maximiser of the scored table.
        assert choice.expected_mops == max(choice.scores.values())

    @given(
        st.lists(st.integers(0, 1200), min_size=1, max_size=60),
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 6),
        st.sampled_from([(64, 1024, 64), (256, 1024, 128), (16, 600, 37)]),
    )
    def test_scores_bit_identical_to_reference_loop(
        self, sizes, rates, retry_upper, grid
    ):
        """Flags computed once per F give the reference loop's scores to
        the last bit, and so its choice: few distinct rates make ties."""
        lower, upper, step = grid

        def iops_at(retry, fetch):
            return rates[(retry + fetch // step) % len(rates)]

        choice = select_parameters(sizes, iops_at, retry_upper, lower, upper, step)
        expected = reference_select(sizes, iops_at, retry_upper, lower, upper, step)
        assert (choice.retry_bound, choice.fetch_size) == (
            expected.retry_bound,
            expected.fetch_size,
        )
        assert choice.expected_mops.hex() == expected.expected_mops.hex()
        assert {key: score.hex() for key, score in choice.scores.items()} == {
            key: score.hex() for key, score in expected.scores.items()
        }

    @given(st.integers(16, 2048), st.integers(1, 512))
    def test_grid_is_sorted_unique_and_covers_bounds(self, lower, step):
        upper = lower + 777
        grid = fetch_size_grid(lower, upper, step)
        assert grid[0] == lower
        assert grid[-1] == upper
        assert grid == sorted(set(grid))
