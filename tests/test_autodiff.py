import contextlib
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mnarkit import autodiff as ad
from mnarkit.autodiff import AdamState, Tensor, adam_step, backward
from mnarkit.errors import DomainError, NumericError, ShapeError


def fd_grad(f, x, h=1e-4):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_grad(build, x0, rtol=1e-4, h=1e-4):
    """build(flat) -> (scalar Tensor, param Tensor); compares autodiff grad
    against central differences."""
    node, param = build(np.asarray(x0, dtype=np.float64))
    backward(node)
    got = param.grad.ravel()
    want = fd_grad(lambda x: float(build(x)[0].value[0, 0]), np.asarray(x0).ravel(), h)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.all(np.abs(got - want) / scale < rtol), (got, want)


rng = np.random.default_rng(12345)


class TestDense:
    def test_identity_weights(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.eye(2))
        b = Tensor([[0.0, 0.0]])
        assert np.allclose(ad.dense(x, w, b).value, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        x = Tensor([[0.0, 0.0]])
        w = Tensor(rng.standard_normal((2, 2)))
        b = Tensor([[3.0, 4.0]])
        assert np.allclose(ad.dense(x, w, b).value, [[3.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            ad.dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones((1, 5))))

    def test_weight_gradient_matches_fd(self):
        for _ in range(10):
            x = rng.standard_normal((2, 3))
            b = rng.standard_normal((1, 4))
            w0 = rng.standard_normal((3, 4))

            def build(flat):
                w = Tensor(flat.reshape(3, 4))
                return ad.mean_all(ad.dense(Tensor(x), w, Tensor(b))), w

            check_grad(build, w0.ravel(), rtol=1e-5)

    def test_input_and_bias_gradients(self):
        x0 = rng.standard_normal((2, 3))
        w = rng.standard_normal((3, 4))

        def build(flat):
            xt = Tensor(flat.reshape(2, 3))
            return ad.mean_all(ad.dense(xt, Tensor(w), Tensor(np.zeros((1, 4))))), xt

        check_grad(build, x0.ravel())


class TestActivations:
    def test_closed_forms(self):
        z = Tensor([[0.0]])
        assert ad.tanh(z).value[0, 0] == 0.0
        assert ad.sigmoid(z).value[0, 0] == 0.5
        assert np.isclose(ad.softplus(z).value[0, 0], np.log(2.0))

    def test_sigmoid_clamped_from_boundaries(self):
        v = ad.sigmoid(Tensor([[-1000.0, 1000.0]])).value
        assert v[0, 0] == ad.PROB_FLOOR
        assert v[0, 1] == 1.0 - ad.PROB_FLOOR

    def test_softplus_strictly_positive(self):
        v = ad.softplus(Tensor([[-50.0, 0.0, 50.0]])).value
        assert np.all(v > 0)

    @pytest.mark.parametrize("activation", [ad.tanh, ad.sigmoid, ad.softplus],
                             ids=["tanh", "sigmoid", "softplus"])
    def test_gradients_match_fd(self, activation):
        for _ in range(5):
            x0 = rng.standard_normal(6) * 2

            def build(flat):
                xt = Tensor(flat.reshape(2, 3))
                return ad.mean_all(activation(xt)), xt

            check_grad(build, x0)


class TestGaussianLogDensity:
    def test_standard_normal_at_mode(self):
        v = ad.gaussian_log_density(np.zeros((1, 1)), Tensor([[0.0]]), Tensor([[1.0]]))
        assert np.isclose(v.value[0, 0], -0.5 * np.log(2 * np.pi))

    def test_at_mode_closed_form(self):
        s = 2.5
        v = ad.gaussian_log_density(np.full((1, 1), 3.0), Tensor([[3.0]]), Tensor([[s]]))
        assert np.isclose(v.value[0, 0], -np.log(s) - 0.5 * np.log(2 * np.pi))

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DomainError):
            ad.gaussian_log_density(np.zeros((1, 1)), Tensor([[0.0]]), Tensor([[0.0]]))

    @pytest.mark.parametrize("x_shape, std_shape", [((1, 1), (3, 2)), ((3, 2), (2, 2))])
    def test_std_that_does_not_broadcast_to_x_is_refused(self, x_shape, std_shape):
        with pytest.raises(ShapeError, match=re.escape(f"{x_shape} and {std_shape}")):
            ad.gaussian_log_density(np.zeros(x_shape), Tensor(np.zeros(x_shape)),
                                    Tensor(np.ones(std_shape)))

    def test_value_has_the_shape_of_x(self):
        x = rng.standard_normal((4, 3))
        v = ad.gaussian_log_density(x, np.zeros((1, 1)), np.full((1, 3), 2.0))
        assert v.shape == (4, 3)
        assert np.allclose(v.value, -np.log(2.0) - 0.5 * np.log(2 * np.pi) - 0.5 * (x / 2.0) ** 2)

    def test_mean_gradient_matches_fd(self):
        for _ in range(10):
            x = rng.standard_normal((3, 2))
            s = np.exp(rng.standard_normal((3, 2)) * 0.3)
            m0 = rng.standard_normal(6)

            def build(flat):
                mt = Tensor(flat.reshape(3, 2))
                return ad.mean_all(ad.gaussian_log_density(x, mt, Tensor(s))), mt

            check_grad(build, m0, rtol=1e-5)

    def test_std_gradient_matches_fd(self):
        x = rng.standard_normal((3, 2))
        m = rng.standard_normal((3, 2))
        s0 = np.exp(rng.standard_normal(6) * 0.2)

        def build(flat):
            st = Tensor(flat.reshape(3, 2))
            return ad.mean_all(ad.gaussian_log_density(x, m, st)), st

        check_grad(build, s0, rtol=1e-5)


class TestBernoulliLogDensity:
    def test_closed_forms(self):
        p = Tensor([[0.5]])
        one = ad.bernoulli_log_density(np.ones((1, 1)), p)
        zero = ad.bernoulli_log_density(np.zeros((1, 1)), p)
        assert np.isclose(one.value[0, 0], np.log(0.5))
        assert np.isclose(zero.value[0, 0], np.log(0.5))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            ad.bernoulli_log_density(np.ones((1, 1)), Tensor([[1.0]]))
        with pytest.raises(DomainError):
            ad.bernoulli_log_density(np.full((1, 1), 0.5), Tensor([[0.5]]))

    @pytest.mark.parametrize("m_shape, p_shape", [((3, 2), (1, 2)), ((2, 2), (3, 2))])
    def test_mask_and_p_of_different_shapes_are_refused(self, m_shape, p_shape):
        with pytest.raises(ShapeError, match="mask shape"):
            ad.bernoulli_log_density(np.ones(m_shape), Tensor(np.full(p_shape, 0.5)))

    def test_logit_gradient_matches_fd(self):
        for _ in range(10):
            m = (rng.random((2, 3)) < 0.5).astype(float)
            z0 = rng.standard_normal(6)

            def build(flat):
                zt = Tensor(flat.reshape(2, 3))
                return ad.mean_all(ad.bernoulli_log_density(m, ad.sigmoid(zt))), zt

            check_grad(build, z0, rtol=1e-5)


class TestReparameterize:
    def test_zero_noise_gives_mean(self):
        m = Tensor(rng.standard_normal((2, 3)))
        s = Tensor(np.abs(rng.standard_normal((2, 3))) + 0.1)
        out = ad.reparameterize(m, s, np.zeros((2, 3)))
        assert np.array_equal(out.value, m.value)

    def test_unit_scale_gives_noise(self):
        noise = rng.standard_normal((2, 3))
        out = ad.reparameterize(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))), noise)
        assert np.array_equal(out.value, noise)

    def test_std_gradient_equals_noise(self):
        noise = rng.standard_normal((2, 3))
        m = Tensor(np.zeros((2, 3)))
        s = Tensor(np.ones((2, 3)))
        out = ad.reparameterize(m, s, noise)
        backward(ad.mean_all(out))  # each entry's upstream gradient is 1/6
        assert np.array_equal(s.grad, noise * (1.0 / 6))
        assert np.array_equal(m.grad, np.full((2, 3), 1.0 / 6))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.reparameterize(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))),
                              np.zeros((3, 2)))


class TestShapeErrorsNameTheirSource:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_elementwise_op_names_itself_and_its_arguments(self, op):
        with pytest.raises(ShapeError, match=re.escape(
                f"{op}: incompatible shapes (3, 2) and (2, 2) of a and b")):
            getattr(ad, op)(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("mean_shape, std_shape, message", [
        ((2, 2), (3, 2), "(3, 2) and (2, 2) of x and mean"),
        ((3, 2), (1, 3), "(3, 2) and (1, 3) of x and std")], ids=["mean", "std"])
    def test_gaussian_log_density_names_the_argument(self, mean_shape, std_shape, message):
        with pytest.raises(ShapeError, match=re.escape(f"gaussian_log_density: incompatible "
                                                       f"shapes {message}")):
            ad.gaussian_log_density(np.zeros((3, 2)), np.zeros(mean_shape), np.ones(std_shape))


class TestLogSumExp:
    def test_closed_forms(self):
        assert np.isclose(ad.log_sum_exp(Tensor([[0.0, 0.0]]), 1).value[0, 0], np.log(2))
        assert np.isclose(ad.log_sum_exp(Tensor([[3.7]]), 1).value[0, 0], 3.7)

    def test_no_overflow(self):
        v = ad.log_sum_exp(Tensor([[1000.0, 1000.0]]), 1).value[0, 0]
        assert np.isclose(v, 1000.0 + np.log(2))

    def test_empty_axis(self):
        with pytest.raises(ShapeError):
            ad.log_sum_exp(Tensor(np.zeros((2, 0))), 1)

    def test_bounds_property(self):
        for _ in range(50):
            v = rng.standard_normal((1, 5)) * 10
            out = ad.log_sum_exp(Tensor(v), 1).value[0, 0]
            assert out >= v.max()
            assert out <= v.max() + np.log(v.size)

    def test_gradient_matches_fd(self):
        v0 = rng.standard_normal(8)

        def build(flat):
            t = Tensor(flat.reshape(2, 4))
            return ad.mean_all(ad.log_sum_exp(t, 1)), t

        check_grad(build, v0, rtol=1e-5)


class TestCompositeGradients:
    """Random scalar compositions through the full op set, 100 instances."""

    def test_random_compositions(self):
        failures = 0
        for trial in range(100):
            r = np.random.default_rng(1000 + trial)
            n, a, b = 2, 3, 2
            x = r.standard_normal((n, a))
            m = (r.random((n, b)) < 0.5).astype(float)
            noise = r.standard_normal((n, b))
            w0 = r.standard_normal(a * b + b + a * b + b) * 0.5

            def build(flat):
                w1 = Tensor(flat[:a * b].reshape(a, b))
                b1 = Tensor(flat[a * b:a * b + b].reshape(1, b))
                w2 = Tensor(flat[a * b + b:a * b + b + a * b].reshape(a, b))
                b2 = Tensor(flat[-b:].reshape(1, b))
                params = Tensor(flat.reshape(1, -1))  # unused carrier
                h = ad.tanh(ad.dense(Tensor(x), w1, b1))
                mean = h
                std = ad.std_head(ad.dense(Tensor(x), w2, b2))
                z = ad.reparameterize(mean, std, noise)
                ll = ad.gaussian_log_density(np.zeros_like(noise), mean, std)
                lb = ad.bernoulli_log_density(m, ad.sigmoid(z))
                total = ad.add(ad.sum_axis(ll, 1), ad.sum_axis(lb, 1))
                return ad.mean_all(ad.log_sum_exp(ad.reshape(total, (1, n)), 1)), (w1, b1, w2, b2)

            node, tensors = build(w0)
            backward(node)
            got = np.concatenate([
                tensors[0].grad.ravel(), tensors[1].grad.ravel(),
                tensors[2].grad.ravel(), tensors[3].grad.ravel()])
            want = fd_grad(lambda f: float(build(f)[0].value[0, 0]), w0, h=1e-4)
            scale = np.maximum(np.abs(want), 1.0)
            if not np.all(np.abs(got - want) / scale < 1e-4):
                failures += 1
        assert failures == 0



def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestTape:
    """The fused dense node, constants and the first-gradient assignment."""

    def test_fused_dense_tanh_is_bit_equal_to_the_composition(self):
        r = np.random.default_rng(3)
        x0, w0, b0 = r.standard_normal((5, 3)), r.standard_normal((3, 4)), r.standard_normal((1, 4))
        weights = r.standard_normal((5, 4))

        def run(layer):
            x, w, b = Tensor(x0), Tensor(w0), Tensor(b0)
            out = layer(x, w, b)
            backward(ad.mean_all(ad.mul_const(out, weights)))
            return out.value, x.grad, w.grad, b.grad

        fused = run(lambda x, w, b: ad.dense(x, w, b, "tanh"))
        composed = run(lambda x, w, b: ad.tanh(ad.add(ad.matmul(x, w), b)))
        for got, want in zip(fused, composed):
            assert np.array_equal(_bits(got), _bits(want))

    def test_constant_leaf_gets_no_gradient(self):
        x = rng.standard_normal((2, 3))
        w = Tensor(rng.standard_normal((3, 2)))
        const, leaf = ad.constant(x), Tensor(x)
        backward(ad.mean_all(ad.add(ad.matmul(const, w), ad.matmul(leaf, w))))
        assert const.grad is None
        assert leaf.grad is not None and w.grad is not None
        assert ad.matmul(const, ad.constant(np.ones((3, 1))))._parents == ()

    def test_parents_sharing_a_gradient_stay_independent(self):
        # both parents of the outer add receive the same g, and s passes
        # that very array on to b; a then accumulates once more through s,
        # which must not write the shared array that b holds
        a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
        s = ad.add(a, b)
        backward(ad.mean_all(ad.add(s, a)))
        assert np.array_equal(a.grad, np.full((2, 2), 0.5))
        assert np.array_equal(b.grad, np.full((2, 2), 0.25))

    def test_backward_releases_interior_nodes_and_keeps_leaves(self):
        x, w = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((3, 2)))
        h = ad.tanh(ad.matmul(x, w))
        lse = ad.log_sum_exp(h, 1)
        out = ad.mean_all(lse)
        values = [n.value.copy() for n in (h, lse, out)]
        backward(out)
        for node in (h, h._parents[0], lse, out):
            assert node.grad is None and node._backward is None
        for node, value in zip((h, lse, out), values):
            assert np.array_equal(node.value, value)
        t = np.tanh(x.value @ w.value)
        g = 0.25 * (1.0 - t * t) * (np.exp(t) / np.exp(t).sum(axis=1, keepdims=True))
        assert np.allclose(x.grad, g @ w.value.T) and np.allclose(w.grad, x.value.T @ g)

    def test_released_arrays_are_freed(self):
        x = Tensor(rng.standard_normal((4, 3)))
        lse = ad.log_sum_exp(ad.tanh(x), 1)
        saved = dict(zip(lse._backward.__code__.co_freevars,
                         (c.cell_contents for c in lse._backward.__closure__)))
        shifted = weakref.ref(saved.pop("shifted"))
        del saved
        grads = []

        def probe_bw(g):  # the gradient mean_all passes in is this node's alone
            grads.append(weakref.ref(g))
            lse._accumulate(g * 2.0)

        probe = Tensor(lse.value * 2.0, (lse,), probe_bw)
        backward(ad.mean_all(probe))
        assert shifted() is None and grads[0]() is None
        assert x.grad is not None

    def test_a_graph_is_backpropagated_once(self):
        x = Tensor(rng.standard_normal((2, 3)))
        h = ad.tanh(x)
        out = ad.mean_all(h)
        backward(out)
        grad = x.grad
        with pytest.raises(DomainError, match="already backpropagated"):
            backward(out)
        with pytest.raises(DomainError, match="already backpropagated"):
            backward(ad.mean_all(ad.scale(h, 2.0)))
        assert x.grad is grad

    def test_logistic_is_bit_equal_to_the_two_branch_formula(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 800.0, -800.0,
                      np.inf, -np.inf, np.nan, *np.linspace(-40.0, 40.0, 801)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        got = ad._logistic(x)
        nan = np.isnan(x)  # the formula's nan has the other sign bit
        assert np.array_equal(_bits(got[~nan]), _bits(want[~nan])) and np.isnan(got[nan]).all()
        # and the np.where numerator it replaced, bit for bit, nan included
        e = np.exp(-np.abs(x))
        assert np.array_equal(_bits(got), _bits(np.where(x >= 0, 1.0, e) / (1.0 + e)))

    # np.logaddexp runs the C library's scalar exp and log1p, within 1 ULP of
    # the rounded exact value; _softplus runs numpy's vectorized ones, which
    # on AVX-512 builds put it within 2 ULP, so the two are within 3
    @pytest.mark.parametrize("points", ["normal", "uniform", "grid"])
    def test_softplus_is_within_2_ulp_of_the_rounded_value(self, points):
        draw = np.random.default_rng(19)
        x = {"normal": lambda: draw.normal(0.0, 4.0, 200_000),
             "uniform": lambda: draw.uniform(-750.0, 750.0, 200_000),
             "grid": lambda: np.linspace(-40.0, 40.0, 80_001)}[points]()
        got = ad._softplus(x)
        assert np.all(got >= 0.0)  # so the bits order the values

        def ulps(want):
            return np.abs(_bits(got).astype(np.int64) - _bits(want).astype(np.int64)).max()

        assert ulps(np.logaddexp(0.0, x)) <= 3
        if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:  # x86-64's 80-bit format
            wide = x.astype(np.longdouble)
            exact = np.maximum(wide, 0.0) + np.log1p(np.exp(-np.abs(wide)))
            assert ulps(exact.astype(np.float64)) <= 2

    def test_softplus_is_exact_at_its_edges(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 36.7, -36.7])
        assert np.array_equal(_bits(ad._softplus(x)), _bits(np.logaddexp(0.0, x)))
        assert np.isnan(ad._softplus(np.array([np.nan]))).all()

    def test_tanh_gradient_is_bit_equal_at_saturation(self):
        x0 = np.array([[0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 19.0, -19.0, 40.0, -800.0]]).T
        w0, b0 = np.ones((1, 3)), np.array([[0.0, -0.0, 0.25]])
        g = rng.standard_normal((10, 3))

        def run(layer):
            x, w, b = Tensor(x0), Tensor(w0), Tensor(b0)
            out = layer(x, w, b)
            backward(ad.mean_all(ad.mul_const(out, g)))
            return out.value, x.grad, w.grad, b.grad

        fused = run(lambda x, w, b: ad.dense(x, w, b, "tanh"))
        composed = run(lambda x, w, b: ad.tanh(ad.add(ad.matmul(x, w), b)))
        for got, want in zip(fused, composed):
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("m, n", [(7, 5), (1, 4), (6, 1), (1, 1)])
    def test_outer_product_matmul_is_bit_equal_to_blas(self, m, n):
        # ±0 operands: a plain multiply yields -0.0 where BLAS yields +0.0
        vals = np.array([0.0, -0.0, 1.5, -2.0, -1e-200, 1e-200, 3.0])
        a0 = np.resize(vals, m).reshape(m, 1)
        b0 = np.resize(vals[::-1], n).reshape(1, n)
        g = rng.standard_normal((m, n))
        a, b = Tensor(a0), Tensor(b0)
        out = ad.matmul(a, b)
        assert np.array_equal(_bits(out.value), _bits(a0 @ b0))
        backward(ad.mean_all(ad.mul_const(out, g)))
        g = np.full((m, n), 1.0 / (m * n)) * g  # the gradient mean_all and mul_const pass on
        assert np.array_equal(_bits(a.grad), _bits(g @ b0.T))
        assert np.array_equal(_bits(b.grad), _bits(a0.T @ g))

    def test_std_head_is_one_node_bit_equal_to_the_composition(self):
        # below the floor (softplus underflows to 0), inside, and above the cap
        pre0 = np.array([[-800.0, -40.0, -6.0, -0.0, 0.0, 0.3, 5.0, 999.0, 1000.0, 1e4]])
        g = rng.standard_normal(pre0.shape)

        def old_std_head(pre):
            s = ad.add_const(ad.softplus(pre), ad.STD_FLOOR)
            inside = (s.value > ad.STD_FLOOR) & (s.value < ad.STD_CAP)
            return Tensor(np.clip(s.value, ad.STD_FLOOR, ad.STD_CAP), (s,),
                          lambda g: s._accumulate(g * inside))

        def run(head):
            pre = Tensor(pre0)
            out = head(pre)
            backward(ad.mean_all(ad.mul_const(out, g)))
            return out, pre.grad

        (fused, fused_grad), (old, old_grad) = run(ad.std_head), run(old_std_head)
        assert fused._parents[0]._parents == ()
        assert np.array_equal(_bits(fused.value), _bits(old.value))
        assert np.array_equal(_bits(fused_grad), _bits(old_grad))
        assert fused.value.min() == ad.STD_FLOOR and fused.value.max() == ad.STD_CAP
        assert np.count_nonzero(fused_grad == 0.0) == 3

    def test_dense_rejects_unknown_activation(self):
        with pytest.raises(DomainError):
            ad.dense(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones((1, 2))),
                     "relu")


class TestBranch:
    """A branch node and its sub-tape against the same graph built inline."""

    def _run(self, build_branch):
        r = np.random.default_rng(5)
        c = ad.constant(r.standard_normal((300, 3)))
        w0, b0 = Tensor(r.standard_normal((3, 16))), Tensor(r.standard_normal((1, 16)))
        wa, ba = Tensor(r.standard_normal((16, 4))), Tensor(r.standard_normal((1, 4)))
        wm, bm = Tensor(r.standard_normal((16, 4))), Tensor(r.standard_normal((1, 4)))
        x = ad.dense(c, w0, b0, "tanh")

        def fn(leaf):
            return ad.scale(ad.sum_axis(ad.dense(leaf, wm, bm, "tanh"), 1), 0.5)

        # x has three consumers: the inline dense, the branch and the density
        node = build_branch(fn, x)
        a = ad.sum_axis(ad.dense(x, wa, ba, "tanh"), 1)
        prior = ad.sum_axis(ad.gaussian_log_density(x, np.zeros((1, 1)), np.ones((1, 1))), 1)
        # the branch node has two consumers, both run before a and prior
        # pass their gradients to x, as the mask term's consumer is in a step
        total = ad.add(ad.mul(ad.add(a, prior), node), node)
        backward(ad.mean_all(total))
        return [total.value, x.grad, w0.grad, b0.grad, wa.grad, ba.grad, wm.grad, bm.grad]

    def test_gradients_are_bit_equal_to_the_inline_graph(self):
        inline = self._run(lambda fn, x: fn(x))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (None, 1, 2):
                with (ThreadPoolExecutor(workers) if workers else
                      contextlib.nullcontext()) as pool:
                    got = self._run(lambda fn, x: ad.branch(fn, x, pool)())
                for g, want in zip(got, inline):
                    assert np.array_equal(_bits(g), _bits(want))
        finally:
            sys.setswitchinterval(interval)

    def test_forward_and_backward_run_on_the_pool(self):
        x = Tensor(np.ones((2, 2)))
        threads = []

        def fn(leaf):
            threads.append(threading.get_ident())
            return Tensor(leaf.value * 3.0, (leaf,),
                          lambda g: threads.append(threading.get_ident())
                          or leaf._accumulate(g * 3.0))

        with ThreadPoolExecutor(1) as pool:
            backward(ad.mean_all(ad.branch(fn, x, pool)()))
        assert len(threads) == 2 and threading.get_ident() not in threads
        assert np.array_equal(x.grad, np.full((2, 2), 0.75))

    @pytest.mark.parametrize("workers", [None, 1])
    def test_the_sub_tape_is_freed_by_its_backward(self, workers):
        x = Tensor(np.ones((2, 2)))
        inner = []

        def fn(leaf):
            h = ad.tanh(leaf)
            inner.append(weakref.ref(h.value))
            return ad.scale(h, 2.0)

        with ThreadPoolExecutor(workers) if workers else contextlib.nullcontext() as pool:
            node = ad.branch(fn, x, pool)()
            assert inner[0]() is not None
            backward(ad.mean_all(node))
        assert inner[0]() is None
        assert np.array_equal(x.grad, np.full((2, 2), 0.5 * (1.0 - np.tanh(1.0) ** 2)))

    def test_a_constant_input_is_refused(self):
        with pytest.raises(DomainError):
            ad.branch(lambda leaf: leaf, ad.constant(np.ones((1, 1))))


def functional_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The functional Adam update that adam_step computes in place; returns
    new (params, m, v, t) and writes none of its arguments."""
    t += 1
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = rng.standard_normal(5)
        before = p.copy()
        state = AdamState.for_size(5)
        adam_step(p, np.zeros(5), state, 0.001)
        assert np.array_equal(p, before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # hand-evaluated recurrence at t=1: m_hat = g, v_hat = g^2, so the
        # update is lr * g / (|g| + eps) ~ lr * sign(g)
        g = np.array([0.5, -2.0, 1e-3])
        p = np.zeros(3)
        adam_step(p, g, AdamState.for_size(3), 0.001)
        expect = -0.001 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expect, rtol=1e-12)
        assert np.allclose(np.abs(p), 0.001, rtol=1e-4)

    def test_determinism(self):
        p = rng.standard_normal(4)
        g = rng.standard_normal(4)
        p1, s1 = p.copy(), AdamState.for_size(4)
        p2, s2 = p.copy(), AdamState.for_size(4)
        adam_step(p1, g, s1, 0.01)
        adam_step(p2, g, s2, 0.01)
        assert not np.array_equal(p1, p)
        assert np.array_equal(p1, p2)
        assert np.array_equal(s1.m, s2.m)

    def test_in_place_steps_equal_the_functional_formula_bit_for_bit(self):
        p = rng.standard_normal(64)
        want, m, v, t = p.copy(), np.zeros(64), np.zeros(64), 0
        state = AdamState.for_size(64)
        moments = state.m, state.v
        for _ in range(20):
            g = rng.standard_normal(64) * 10.0 ** rng.uniform(-8, 4, 64)
            adam_step(p, g, state, 0.003)
            want, m, v, t = functional_adam(want, g, m, v, t, 0.003)
            assert np.array_equal(p.view(np.int64), want.view(np.int64))
            assert np.array_equal(_bits(state.m), _bits(m))
            assert np.array_equal(_bits(state.v), _bits(v))
        assert state.t == t
        assert state.m is moments[0] and state.v is moments[1]  # updated in place

    def test_a_refused_step_writes_nothing(self):
        p, state = rng.standard_normal(3), AdamState.for_size(3)
        adam_step(p, np.ones(3), state, 0.01)
        before = (p.copy(), state.m.copy(), state.v.copy(), state.t)
        with pytest.raises(NumericError):
            adam_step(p, np.array([1.0, np.nan, 1.0]), state, 0.01)
        assert all(np.array_equal(a, b) for a, b in
                   zip((p, state.m, state.v, state.t), before))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.for_size(3), 0.01)
