import numpy as np
import pytest

from hlpuf_lab import qstate
from hlpuf_lab.seeding import derive_rng
from state_helpers import helstrom_success, mixture, probability_a, same_state, trace_distance

SQRT_HALF = 1.0 / np.sqrt(2.0)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qstate.PureState(v / np.linalg.norm(v))


def projectors(meas):
    """(P_a, P_b): the projectors onto the measurement's outcome-0 and outcome-1 columns."""
    va, vb = meas.basis[:, meas.labels == 0], meas.basis[:, meas.labels == 1]
    return va @ va.conj().T, vb @ vb.conj().T


def random_density(rng, dim, terms=3):
    w = rng.random(terms)
    w /= w.sum()
    return mixture([(random_pure(rng, dim), p) for p in w])


class TestBb84State:
    def test_encoding_table(self):
        assert np.allclose(qstate.bb84_state(0, 0).amplitudes, [1, 0])
        assert np.allclose(qstate.bb84_state(1, 0).amplitudes, [0, 1])
        assert np.allclose(qstate.bb84_state(0, 1).amplitudes, [SQRT_HALF, SQRT_HALF])
        assert np.allclose(qstate.bb84_state(1, 1).amplitudes, [SQRT_HALF, -SQRT_HALF])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            qstate.bb84_state(2, 0)

    def test_amplitudes_bit_equal_to_the_formula(self):
        for bit in (0, 1):
            for basis in (0, 1):
                if basis == 0:
                    amp = np.zeros(2, dtype=complex)
                    amp[bit] = 1.0
                else:
                    amp = np.array([1.0, 1.0 - 2.0 * bit], dtype=complex) / np.sqrt(2.0)
                assert qstate.bb84_state(bit, basis).amplitudes.tobytes() == amp.tobytes()


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qstate.PureState([1.0, 1.0])

    def test_rejects_unsupported_dim(self):
        with pytest.raises(ValueError):
            qstate.PureState([1.0, 0.0, 0.0])

    def test_immutable(self):
        psi = qstate.bb84_state(0, 0)
        with pytest.raises(AttributeError):
            psi.amplitudes = np.array([0, 1])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestMixture:
    def test_pure_embedding(self):
        rho = mixture([(qstate.bb84_state(0, 0), 1.0)])
        assert np.allclose(rho.entries, [[1, 0], [0, 0]])

    def test_zero_plus_mixture(self):
        rho = mixture([(qstate.bb84_state(0, 0), 0.5),
                              (qstate.bb84_state(0, 1), 0.5)])
        assert np.allclose(rho.entries, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)

    def test_maximally_mixed(self):
        rho = mixture([(qstate.bb84_state(0, 0), 0.5),
                              (qstate.bb84_state(1, 0), 0.5)])
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            mixture([(qstate.bb84_state(0, 0), 0.7)])
        with pytest.raises(ValueError):
            mixture([(qstate.bb84_state(0, 0), 1.5),
                            (qstate.bb84_state(1, 0), -0.5)])

    def test_mixtures_are_valid_density_matrices(self):
        rng = derive_rng(101)
        for dim in (2, 4, 8):
            for _ in range(10):
                rho = random_density(rng, dim).entries
                assert np.allclose(rho, rho.conj().T, atol=1e-9)
                assert abs(np.trace(rho) - 1) < 1e-9
                assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qstate.DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            qstate.DensityMatrix([[0.8, 0], [0, 0.8]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            qstate.DensityMatrix([[1.2, 0], [0, -0.2]])


class TestTraceDistance:
    def test_orthogonal(self):
        a = qstate.bb84_state(0, 0).density()
        b = qstate.bb84_state(1, 0).density()
        assert trace_close(trace_distance(a, b), 1.0)

    def test_identical(self):
        rho = random_density(derive_rng(5), 4)
        assert trace_close(trace_distance(rho, rho), 0.0)

    def test_value_mixture_pair(self):
        # 1/2|0><0| + 1/2|+><+| vs 1/2|1><1| + 1/2|-><-|
        a = mixture([(qstate.bb84_state(0, 0), 0.5), (qstate.bb84_state(0, 1), 0.5)])
        b = mixture([(qstate.bb84_state(1, 0), 0.5), (qstate.bb84_state(1, 1), 0.5)])
        assert trace_close(trace_distance(a, b), SQRT_HALF)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(random_density(derive_rng(6), 2),
                                  random_density(derive_rng(7), 4))


def trace_close(x, y, tol=1e-9):
    return abs(x - y) <= tol


class TestHelstromSuccess:
    def test_orthogonal(self):
        a = qstate.bb84_state(0, 0).density()
        b = qstate.bb84_state(1, 0).density()
        assert trace_close(helstrom_success(a, b, 0.5), 1.0)

    def test_indistinguishable(self):
        rho = random_density(derive_rng(8), 2)
        assert trace_close(helstrom_success(rho, rho, 0.5), 0.5)

    def test_value_mixture_pair(self):
        a = mixture([(qstate.bb84_state(0, 0), 0.5), (qstate.bb84_state(0, 1), 0.5)])
        b = mixture([(qstate.bb84_state(1, 0), 0.5), (qstate.bb84_state(1, 1), 0.5)])
        assert trace_close(helstrom_success(a, b, 0.5), 0.5 + 0.5 * SQRT_HALF)

    def test_equals_half_plus_half_trace_distance(self):
        rng = derive_rng(9)
        for dim in (2, 4, 8):
            for _ in range(8):
                a, b = random_density(rng, dim), random_density(rng, dim)
                lhs = helstrom_success(a, b, 0.5)
                rhs = 0.5 + 0.5 * trace_distance(a, b)
                assert trace_close(lhs, rhs)


class TestHelstromMeasurement:
    def test_orthogonal_projectors(self):
        meas = qstate.helstrom_measurement(qstate.bb84_state(0, 0).density(),
                                           qstate.bb84_state(1, 0).density())
        pa, pb = projectors(meas)
        assert np.allclose(pa, [[1, 0], [0, 0]], atol=1e-9)
        assert np.allclose(pb, [[0, 0], [0, 1]], atol=1e-9)

    def test_value_mixtures_give_rotated_basis(self):
        # eigenvectors of (Z+X)/2: (cos pi/8, sin pi/8) and its orthogonal complement
        a = mixture([(qstate.bb84_state(0, 0), 0.5), (qstate.bb84_state(0, 1), 0.5)])
        b = mixture([(qstate.bb84_state(1, 0), 0.5), (qstate.bb84_state(1, 1), 0.5)])
        meas = qstate.helstrom_measurement(a, b)
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        expected_a = np.outer([c, s], [c, s])
        expected_b = np.outer([-s, c], [-s, c])
        pa, pb = projectors(meas)
        assert np.allclose(pa, expected_a, atol=1e-9)
        assert np.allclose(pb, expected_b, atol=1e-9)

    def test_projectors_complete(self):
        rng = derive_rng(10)
        for dim in (2, 4, 8):
            a, b = random_density(rng, dim), random_density(rng, dim)
            pa, pb = projectors(qstate.helstrom_measurement(a, b))
            assert np.allclose(pa + pb, np.eye(dim), atol=1e-9)

    def test_success_matches_helstrom(self):
        # the optimal measurement's exact success on states drawn from the two
        # equiprobable hypotheses, each an equal mixture of two states
        a_states = [qstate.bb84_state(0, 0), qstate.bb84_state(0, 1)]
        b_states = [qstate.bb84_state(1, 0), qstate.bb84_state(1, 1)]
        a = mixture([(s, 0.5) for s in a_states])
        b = mixture([(s, 0.5) for s in b_states])
        meas = qstate.helstrom_measurement(a, b)
        success = 0.25 * sum(probability_a(meas, s) for s in a_states) \
            + 0.25 * sum(1 - probability_a(meas, s) for s in b_states)
        assert abs(success - helstrom_success(a, b, 0.5)) <= 1e-12


class TestMeasure:
    def test_eigenstate_is_deterministic(self):
        rng = derive_rng(13)
        x_basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        for _ in range(50):
            outcome, post = qstate.measure(qstate.bb84_state(0, 1), x_basis, rng)
            assert outcome == 0
            assert same_state(post, qstate.bb84_state(0, 1))

    def test_conjugate_basis_is_uniform(self):
        rng = derive_rng(14)
        n = 100000
        zeros = 0
        plus = qstate.bb84_state(0, 1)
        eye = np.eye(2, dtype=complex)
        for _ in range(n):
            outcome, _ = qstate.measure(plus, eye, rng)
            zeros += outcome == 0
        assert abs(zeros / n - 0.5) <= 0.01

    def test_rotated_basis_frequency(self):
        # |0> measured in the (Z+X)/2 eigenbasis lands on the first vector
        # with probability cos^2(pi/8)
        rng = derive_rng(15)
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        basis = np.array([[c, -s], [s, c]], dtype=complex)
        zero = qstate.bb84_state(0, 0)
        n = 100000
        hits = sum(qstate.measure(zero, basis, rng)[0] == 0 for _ in range(n))
        assert abs(hits / n - c * c) <= 0.01

    def test_rejects_non_orthonormal(self):
        rng = derive_rng(16)
        bad = np.array([[1, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            qstate.measure(qstate.bb84_state(0, 0), bad, rng)


FAMILIES = (qstate.bb84_family, qstate.mub4_family, qstate.mub8_family)


class TestFamilyMeasure:
    """MubFamily.measure against the validating scalar measure, draw for draw."""

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_matches_measure_on_every_family_state(self, make_family):
        fam = make_family()
        a, b = derive_rng(17), derive_rng(17)
        for state_theta in range(len(fam)):
            for value in range(fam.dim):
                state = fam.basis_state(state_theta, value)
                for theta in range(len(fam)):
                    for _ in range(4):
                        expected, _post = qstate.measure(state, fam.bases[theta], a)
                        assert fam.measure(state, theta, b) == expected
        assert a.random() == b.random()

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_matches_measure_on_random_states(self, make_family):
        fam = make_family()
        states = derive_rng(18)
        a, b = derive_rng(19), derive_rng(19)
        for _ in range(300):
            state = random_pure(states, fam.dim)
            theta = int(states.integers(0, len(fam)))
            expected, _post = qstate.measure(state, fam.bases[theta], a)
            assert fam.measure(state, theta, b) == expected
        assert a.random() == b.random()

    def test_dimension_mismatch_refused(self):
        with pytest.raises(ValueError):
            qstate.mub4_family().measure(qstate.bb84_state(0, 0), 0, derive_rng(21))


class FixedDraw:
    """Stands in for a generator whose next rng.random() is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestBornDraw:
    def test_matches_searchsorted_right(self):
        rng = derive_rng(24)
        for dim in qstate.SUPPORTED_DIMS:
            for _ in range(100):
                probs = rng.random(dim) * (rng.random(dim) < 0.7)
                if probs.sum() == 0.0:
                    continue
                cdf = np.cumsum(probs / probs.sum())
                for u in (*cdf, *rng.random(4), 0.0, np.nextafter(cdf[-1], 2.0)):
                    expected = min(int(np.searchsorted(cdf, u, side="right")), dim - 1)
                    assert qstate._draw(cdf, FixedDraw(float(u))) == expected
                    assert qstate._draw(cdf.tolist(), FixedDraw(float(u))) == expected


class TestFamilyTables:
    """Columns and Born CDFs that a validated family builds once."""

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_columns_are_the_basis_columns(self, make_family):
        fam = make_family()
        assert fam.columns.shape == (len(fam), fam.dim, fam.dim)
        assert fam.columns.flags.c_contiguous and not fam.columns.flags.writeable
        for theta, basis in enumerate(fam.bases):
            for value in range(fam.dim):
                assert fam.columns[theta, value].tobytes() == basis[:, value].tobytes()

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_cached_cdfs_are_the_kernel_output(self, make_family):
        fam = make_family()
        assert len(fam._cdfs) == len(fam) * fam.dim
        for col in fam.columns.reshape(-1, fam.dim):
            cached = fam._cdfs[col.tobytes()]
            assert len(cached) == len(fam)
            for theta, basis in enumerate(fam.bases):
                probs = np.abs(basis.conj().T @ col) ** 2
                expected = np.cumsum(probs / probs.sum())
                assert np.array(cached[theta]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_family_states_skip_the_kernel(self, make_family, monkeypatch):
        fam = make_family()
        states = [fam.basis_state(t, v) for t in range(len(fam)) for v in range(fam.dim)]

        def kernel(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(qstate, "_born_cdf", kernel)
        rng = derive_rng(22)
        for state in states:
            for theta in range(len(fam)):
                fam.measure(state, theta, rng)
        with pytest.raises(AssertionError):
            fam.measure(random_pure(derive_rng(23), fam.dim), 0, rng)

    @pytest.mark.parametrize("make_family", FAMILIES)
    def test_basis_state_is_a_new_object_on_its_column(self, make_family):
        fam = make_family()
        for theta in range(len(fam)):
            for value in range(fam.dim):
                a, b = fam.basis_state(theta, value), fam.basis_state(theta, value)
                assert a is not b
                assert not a.amplitudes.flags.writeable
                assert a.amplitudes.tobytes() == fam.columns[theta, value].tobytes()


class TestMubFamilies:
    def test_mub8_has_nine_bases(self):
        assert len(qstate.mub8_family()) == 9

    def test_mub8_first_basis_is_identity(self):
        assert np.allclose(qstate.mub8_family().bases[0], np.eye(8))

    def test_mub8_pairwise_unbiased(self):
        fam = qstate.mub8_family()
        assert fam.check() == []
        for t1 in range(9):
            for t2 in range(t1 + 1, 9):
                overlaps = np.abs(fam.bases[t1].conj().T @ fam.bases[t2]) ** 2
                assert np.max(np.abs(overlaps - 0.125)) < 1e-9

    def test_mub4_and_bb84_families(self):
        assert len(qstate.mub4_family()) == 5
        assert qstate.mub4_family().check() == []
        assert len(qstate.bb84_family()) == 2
        assert qstate.bb84_family().check() == []

    def test_corrupted_family_detected(self):
        bases = [b.copy() for b in qstate.mub8_family().bases]
        bases[2][0, 0] += 0.05
        with pytest.raises(ValueError):
            qstate.MubFamily(8, bases)
