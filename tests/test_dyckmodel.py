import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import dyckmodel
from nclab.closedform import total_count
from nclab.dyckmodel import (
    DyckPath,
    _order_isomorphic,
    ddom_leq,
    enumerate_tdyck,
    h_via_paths,
    theta,
    theta_inverse,
)
from nclab.errors import DomainError, ParameterError
from nclab.nonnest import TFilter, all_t_filters, h_tilde
from nclab.params import Params
from nclab.polyalg import h_triangle_closed


def tf(n, t, pairs):
    return TFilter(n, t, frozenset(pairs))


def valleys(steps):
    """The (x, height) of each valley of a path, by dyckmodel._valleys."""
    return list(dyckmodel._valleys(steps, DyckPath(steps).heights()))


@st.composite
def t_filters(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    t = draw(st.integers(1, n))
    heights = []
    lower = 0
    for j in range(t + 1, n + 1):
        a = draw(st.integers(lower, j - 1))
        heights.append((j, a))
        lower = a
    pairs = {(i, j) for j, a in heights for i in range(1, a + 1)}
    return tf(n, t, pairs)


class TestDyckPath:
    def test_validation(self):
        with pytest.raises(DomainError):
            DyckPath("UDX")
        with pytest.raises(DomainError):
            DyckPath("UDU")
        with pytest.raises(DomainError):
            DyckPath("DU")
        with pytest.raises(DomainError):
            DyckPath("UUDDUU")

    def test_heights(self):
        assert DyckPath("UUDDUDUD").heights() == (0, 1, 2, 1, 0, 1, 0, 1, 0)

    def test_heights_stored(self):
        path = DyckPath("UUDDUD")
        assert path.heights() is path.heights()

    def test_json(self):
        assert DyckPath("UUDD").to_json(1) == '{"n":2,"t":1,"steps":"UUDD"}'


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_tdyck(4, 2)) == 9
        assert len(enumerate_tdyck(3, 1)) == 5

    def test_single_mountain(self):
        assert enumerate_tdyck(5, 5) == (DyckPath("UUUUUDDDDD"),)

    def test_invalid_t(self):
        with pytest.raises(ParameterError):
            enumerate_tdyck(3, 4)

    def test_all_start_with_rises(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                for path in enumerate_tdyck(n, t):
                    assert path.starts_with_rises(t)

    def test_count_matches_formula(self):
        for n in range(1, 8):
            for t in range(1, n + 1):
                assert len(enumerate_tdyck(n, t)) == total_count(Params(1, n, t))


class TestStats:
    def test_single_mountain(self):
        assert valleys("UUUDDD") == []

    def test_figure_top_path(self):
        assert valleys("UUDDUDUD") == [(4, 0), (6, 0)]

    def test_valleys_at_positive_height(self):
        assert valleys("UUDUDUDD") == [(3, 1), (5, 1)]

    def test_peaks_one_more_than_valleys(self):
        for n in range(1, 7):
            for path in enumerate_tdyck(n, 1):
                steps, heights = path.steps, path.heights()
                literal = [
                    (x, heights[x]) for x in range(1, len(steps)) if steps[x - 1 : x + 1] == "DU"
                ]
                assert valleys(steps) == literal
                assert steps.count("UD") == len(literal) + 1


class TestTheta:
    def test_empty_filter_single_mountain(self):
        assert theta(tf(4, 2, set())) == DyckPath("UUUUDDDD")

    def test_full_filter_low_path(self):
        full = tf(4, 2, {(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)})
        path = theta(full)
        assert path == DyckPath("UUDDUDUD")
        assert valleys(path.steps) == [(4, 0), (6, 0)]

    def test_middle_filter(self):
        path = theta(tf(4, 2, {(1, 3), (1, 4), (2, 4)}))
        assert path == DyckPath("UUDUDUDD")
        assert valleys(path.steps) == [(3, 1), (5, 1)]

    def test_round_trip_exhaustive(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                paths = set(enumerate_tdyck(n, t))
                images = set()
                for filt in all_t_filters(n, t):
                    path = theta(filt)
                    assert theta_inverse(path, t) == filt
                    images.add(path)
                assert images == paths
                for path in paths:
                    assert theta(theta_inverse(path, t)) == path

    @settings(max_examples=60, deadline=None)
    @given(t_filters())
    def test_round_trip_random(self, filt):
        assert theta_inverse(theta(filt), filt.t) == filt

    def test_one_wrong_inverse_fails_the_bijection(self, monkeypatch):
        # bijection_holds checks one round trip, on masks through _theta_mask,
        # the helper behind theta_inverse; an inverse that is wrong on a single
        # path must still fail it.
        n, t = 5, 2
        paths = enumerate_tdyck(n, t)
        real = dyckmodel._theta_mask
        wrong = theta_inverse(paths[0], t).mask
        assert dyckmodel.bijection_holds(n, t)
        monkeypatch.setattr(
            dyckmodel,
            "_theta_mask",
            lambda steps, heights, t: wrong if steps == paths[-1].steps else real(steps, heights, t),
        )
        assert theta_inverse(paths[-1], t).mask == wrong
        assert not dyckmodel.bijection_holds(n, t)

    def test_mask_level_check_equals_the_literal_one(self):
        for n in range(1, 9):
            for t in range(1, n + 1):
                assert dyckmodel.bijection_holds(n, t) is oracles.bijection_literal(n, t) is True

    def test_inverse_requires_t_path(self):
        with pytest.raises(DomainError):
            theta_inverse(DyckPath("UDUD"), 2)


class TestDominance:
    def test_single_mountain_below_everything(self):
        for n, t in ((4, 2), (5, 1), (3, 3)):
            mountain = DyckPath("U" * n + "D" * n)
            for path in enumerate_tdyck(n, t):
                assert ddom_leq(mountain, path)

    def test_reflexive(self):
        for path in enumerate_tdyck(4, 2):
            assert ddom_leq(path, path)

    def test_maximum_of_d42(self):
        low = DyckPath("UUDDUDUD")
        for path in enumerate_tdyck(4, 2):
            assert ddom_leq(path, low)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ddom_leq(DyckPath("UD"), DyckPath("UUDD"))

    def test_matches_pointwise_oracle(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                paths = enumerate_tdyck(n, t)
                for a in paths:
                    for b in paths:
                        assert ddom_leq(a, b) == oracles.dominates(a.heights(), b.heights())

    def test_order_isomorphism_exhaustive(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                filters = all_t_filters(n, t)
                images = [theta(f) for f in filters]
                for a, fa in enumerate(filters):
                    for b, fb in enumerate(filters):
                        assert (fa.pairs <= fb.pairs) == ddom_leq(images[a], images[b])


def _families(n, t):
    """Filter masks and the area masks of their theta images, in filter order."""
    filters = all_t_filters(n, t)
    return [f.mask for f in filters], [theta(f)._area for f in filters]


def _disagreeing(masks, areas):
    """The literal all-pairs loop: every (a, b) where inclusion and dominance differ."""
    return [
        (a, b)
        for a, (fa, aa) in enumerate(zip(masks, areas))
        for b, (fb, ab) in enumerate(zip(masks, areas))
        if (not fa & ~fb) != (not ab & ~aa)
    ]


class TestOrderColumns:
    def test_agrees_with_literal_loop(self):
        for n in range(1, 8):
            for t in range(1, n + 1):
                masks, areas = _families(n, t)
                assert not _disagreeing(masks, areas), (n, t)
                assert _order_isomorphic(masks, areas), (n, t)
                # Swapping the images of the empty and the full filter breaks the order.
                areas[0], areas[-1] = areas[-1], areas[0]
                assert bool(_disagreeing(masks, areas)) is (len(areas) > 1), (n, t)
                assert _order_isomorphic(masks, areas) is (len(areas) == 1), (n, t)

    def test_one_disagreeing_pair_is_caught(self):
        for n in range(2, 8):
            for t in range(1, n):
                masks, areas = _families(n, t)
                # The single-pair filter {(1, n)} lies above the empty filter only;
                # a bit no other area holds makes exactly that pair disagree.
                atom = next(i for i, mask in enumerate(masks) if mask.bit_count() == 1)
                areas[atom] |= 1 << max(areas).bit_length()
                assert _disagreeing(masks, areas) == [(masks.index(0), atom)], (n, t)
                assert not _order_isomorphic(masks, areas), (n, t)


class TestHViaPaths:
    def test_golden_42(self):
        from nclab.polyalg import ONE, X, Y

        expected = X**2 * Y**2 + X**2 * Y + X**2 + 2 * X * Y + 3 * X + ONE
        assert h_via_paths(4, 2) == expected

    def test_trivial(self):
        from nclab.polyalg import ONE

        assert h_via_paths(5, 5) == ONE

    def test_agrees_with_closed_form(self):
        assert h_via_paths(3, 1) == h_triangle_closed(Params(1, 3, 1))

    def test_three_models_agree_small(self):
        for n in range(1, 7):
            for t in range(1, n + 1):
                p = Params(1, n, t)
                paths_poly = h_via_paths(n, t)
                assert paths_poly == h_tilde(p)
                assert paths_poly == h_triangle_closed(p)

    def test_closed_form_agreement_extended(self):
        # paths are cheap, so the closed-form comparison extends to n <= 9
        for n in (8, 9):
            for t in range(1, n + 1):
                assert h_via_paths(n, t) == h_triangle_closed(Params(1, n, t))
