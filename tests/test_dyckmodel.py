from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nclab import cli, dyckmodel
from nclab.closedform import total_count
from nclab.dyckmodel import (
    DyckPath,
    ddom_leq,
    enumerate_tdyck,
    h_via_paths,
    theta,
    theta_inverse,
)
from nclab.errors import DomainError, ParameterError
from nclab.nonnest import (
    TFilter,
    _restricted_mask,
    _tfilter_masks,
    _universe,
    all_t_filters,
    h_tilde,
)
from nclab.params import Params
from nclab.polyalg import h_triangle_closed


def bijection_holds(n, t):
    """The one-t verdict of `bijection_verdicts`."""
    [(_, ok)] = dyckmodel.bijection_verdicts(n, (t,))
    return ok


@pytest.fixture(autouse=True)
def fresh_theta_table():
    """Build `_theta_table` anew around each test: the tests patch the helpers it calls."""
    dyckmodel._theta_table.cache_clear()
    yield
    dyckmodel._theta_table.cache_clear()


@contextmanager
def patched(monkeypatch):
    """A monkeypatch context whose patches `_theta_table` sees, and whose table goes with it."""
    with monkeypatch.context() as patch:
        dyckmodel._theta_table.cache_clear()
        try:
            yield patch
        finally:
            dyckmodel._theta_table.cache_clear()


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

    def test_json(self, capsys):
        # `enumerate --kind dyck` prints each path's steps with its n and t.
        assert cli.main(["enumerate", "--kind", "dyck", "--m", "1", "--n", "2", "--t", "1"]) == 0
        assert capsys.readouterr().out == (
            '{"n":2,"t":1,"steps":"UDUD"}\n{"n":2,"t":1,"steps":"UUDD"}\n'
        )


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
        # bijection_verdicts checks one round trip, on masks through _theta_mask,
        # the helper behind theta_inverse; an inverse that is wrong on a single
        # path must still fail it.
        n, t = 5, 2
        paths = enumerate_tdyck(n, t)
        real = dyckmodel._theta_mask
        wrong = theta_inverse(paths[0], t).mask
        assert bijection_holds(n, t)
        with patched(monkeypatch) as patch:
            patch.setattr(
                dyckmodel,
                "_theta_mask",
                lambda steps, heights, t: wrong if steps == paths[-1].steps else real(steps, heights, t),
            )
            assert theta_inverse(paths[-1], t).mask == wrong
            assert not bijection_holds(n, t)

    def test_an_image_without_its_rises_fails_up_to_that_t(self, monkeypatch):
        # The filter generated by (t, t+1) is a t-filter and no (t+1)-filter;
        # its image U^t D^t U^(n-t) D^(n-t) loses its t leading rises as
        # (UD)^t U^(n-t) D^(n-t).  Every row up to t holds that filter and
        # must fail; the rows past t do not hold it and must still pass.
        real = dyckmodel._theta_steps
        for n in (5, 6):
            u = _universe(n)
            for t in range(2, n):
                filt = u.above[u.index[(t, t + 1)]]
                assert filt in _tfilter_masks(n, t) and filt not in _tfilter_masks(n, t + 1)
                image = real(n, t, filt)
                assert image == "U" * t + "D" * t + "U" * (n - t) + "D" * (n - t)
                mutant = "UD" * t + image[2 * t :]
                with patched(monkeypatch) as patch:
                    patch.setattr(
                        dyckmodel,
                        "_theta_steps",
                        lambda n_, t_, mask: mutant if mask == filt else real(n_, t_, mask),
                    )
                    verdicts = [bijection_holds(n, s) for s in range(1, n + 1)]
                assert verdicts == [False] * t + [True] * (n - t), (n, t)

    def test_t_filters_are_the_one_filters_off_the_first_t_columns(self):
        # The lemma that lets every t read the images _theta_table keeps for the 1-filters.
        for n in range(1, 11):
            ones = _tfilter_masks(n, 1)
            for t in range(1, n + 1):
                kept = [mask for mask in ones if not mask & ~_restricted_mask(n, t)]
                assert list(_tfilter_masks(n, t)) == kept, (n, t)

    def test_mask_level_check_equals_the_literal_one(self):
        # t runs up and then, on a fresh table, down, so that the rows t < n
        # read the table that the row t = n built.
        for n in range(1, 9):
            assert [oracles.bijection_literal(n, t) for t in range(1, n + 1)] == [True] * n, n
            for order in (range(1, n + 1), range(n, 0, -1)):
                dyckmodel._theta_table.cache_clear()
                for t in order:
                    assert bijection_holds(n, t) is True, (n, t)

    def test_grouped_verdicts_read_one_path_enumeration(self, monkeypatch):
        # The t-paths are the t0-paths that start with t rises, in the same order.
        for n in range(1, 10):
            for t0 in range(1, n + 1):
                every = dyckmodel._tdyck_steps(n, t0)
                for t in range(t0, n + 1):
                    kept = [steps for steps in every if steps.startswith("U" * t)]
                    assert kept == dyckmodel._tdyck_steps(n, t), (n, t0, t)
        calls = []
        enumerate_paths = dyckmodel._tdyck_steps
        monkeypatch.setattr(
            dyckmodel, "_tdyck_steps", lambda n, t: calls.append((n, t)) or enumerate_paths(n, t)
        )
        for n in range(1, 9):
            for t0 in range(1, min(n, 2) + 1):
                ts = tuple(range(t0, n + 1))
                grouped = list(dyckmodel.bijection_verdicts(n, ts))
                assert grouped == [(t, True) for t in ts] and calls == [(n, t0)], (n, t0)
                calls.clear()

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


def _with_areas(monkeypatch, areas_by_steps):
    """Make dyckmodel._walk report the given area for each listed step string."""
    real = dyckmodel._walk

    def walk(steps):
        heights, area = real(steps)
        return heights, areas_by_steps.get(steps, area)

    monkeypatch.setattr(dyckmodel, "_walk", walk)


class TestOrderColumns:
    def test_agrees_with_literal_loop(self, monkeypatch):
        for n in range(1, 8):
            for t in range(1, n + 1):
                masks, areas = _families(n, t)
                assert not _disagreeing(masks, areas), (n, t)
                # Swapping the areas of an atom's and a larger full filter's
                # images breaks the order, and with it the area identity.
                a = next((i for i, mask in enumerate(masks) if mask.bit_count() == 1), None)
                b = masks.index(max(masks, key=int.bit_count))
                if a is None or a == b:  # no filter has two pairs: nothing to swap
                    continue
                areas[a], areas[b] = areas[b], areas[a]
                assert _disagreeing(masks, areas), (n, t)
                steps = [theta(f).steps for f in all_t_filters(n, t)]
                with patched(monkeypatch) as patch:
                    _with_areas(patch, {steps[a]: areas[a], steps[b]: areas[b]})
                    assert not bijection_holds(n, t), (n, t)

    def test_one_disagreeing_pair_is_caught(self, monkeypatch):
        for n in range(2, 8):
            for t in range(1, n):
                masks, areas = _families(n, t)
                # The single-pair filter {(1, n)} lies above the empty filter only;
                # a bit no other area holds makes exactly that pair disagree.
                atom = next(i for i, mask in enumerate(masks) if mask.bit_count() == 1)
                areas[atom] |= 1 << max(areas).bit_length()
                assert _disagreeing(masks, areas) == [(masks.index(0), atom)], (n, t)
                steps = theta(all_t_filters(n, t)[atom]).steps
                with patched(monkeypatch) as patch:
                    _with_areas(patch, {steps: areas[atom]})
                    assert not bijection_holds(n, t), (n, t)


class TestAreaCells:
    def test_cells_are_disjoint_inside_the_mountain_and_give_back_their_pair(self):
        for n in range(1, 13):
            width = n + 1
            mountain = DyckPath("U" * n + "D" * n)._area
            cells = dyckmodel._area_cells(n)
            union = 0
            for k, cell in cells.items():
                low = cell.bit_length() - 2
                assert cell == 0b11 << low and not cell & union, (n, k)
                assert not cell & ~mountain, (n, k)
                union |= cell
                x, y = divmod(low, width)
                assert ((x - y) // 2, (x + y) // 2 + 1) == divmod(k, width), (n, k)
                assert (x - y) % 2 == 0, (n, k)
            assert len(cells) == n * (n - 1) // 2


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
