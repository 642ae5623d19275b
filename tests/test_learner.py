import hashlib

import numpy as np
import pytest

from colnmpc.learner import (DataPoint, DataStore, LearnerConfig, TrainingSet,
                             adapt, grow_and_train, init_new_node, lm_train,
                             replay_sample)
from colnmpc.surrogate import ScalingSpec, SurrogateModel, transform

SC = ScalingSpec(r_lo=0.3, r_hi=3.0)
CFG = LearnerConfig()


def _pt(x, y, r, target, w=1.0, t=0.0, source="open-loop"):
    return DataPoint(t, x, y, r, target, w, source)


def _random_inputs(rng, n):
    return np.column_stack([rng.uniform(0.02, 0.98, n),
                            rng.uniform(0.02, 0.98, n),
                            rng.uniform(0.4, 2.5, n)])


def _points_from_model(model, X, w=1.0, source="open-loop"):
    y = model.eval_batch(X)
    return [_pt(*X[i], y[i], w=w, source=source) for i in range(X.shape[0])]


def _training_set(model, X):
    return TrainingSet.assemble(_points_from_model(model, X))


# ---------------------------------------------------------------------------
# data store
# ---------------------------------------------------------------------------

def test_store_append_tracks_box():
    store = DataStore()
    store.append([_pt(0.2, 0.3, 1.0, 0.5), _pt(0.6, 0.1, 2.0, 0.4)])
    assert len(store) == 2
    assert np.allclose(store.box_lo, [0.2, 0.1, 1.0])
    assert np.allclose(store.box_hi, [0.6, 0.3, 2.0])
    # interior point leaves the box unchanged
    store.append([_pt(0.4, 0.2, 1.5, 0.3)])
    assert np.allclose(store.box_lo, [0.2, 0.1, 1.0])
    assert np.allclose(store.box_hi, [0.6, 0.3, 2.0])


def test_store_discards_below_weight_floor():
    store = DataStore(weight_floor=1e-3)
    kept = store.append([_pt(0.2, 0.3, 1.0, 0.5, w=0.0),
                         _pt(0.2, 0.3, 1.0, 0.5, w=1e-4),
                         _pt(0.2, 0.3, 1.0, 0.5, w=0.5)])
    assert len(store) == 1 and kept == [0]
    assert store.n_discarded == 2


def test_store_csv_roundtrip(tmp_path, rng):
    store = DataStore()
    X = _random_inputs(rng, 20)
    store.append([_pt(*X[i], rng.uniform(0, 1), w=rng.uniform(0.1, 1),
                      t=float(i), source="closed-loop") for i in range(20)])
    path = tmp_path / "store.csv"
    store.write_csv(path)
    loaded = DataStore.read_csv(path)
    assert len(loaded) == len(store)
    assert np.array_equal(loaded.inputs(), store.inputs())
    assert loaded.points == store.points
    # a row whose field count differs from the header names its line
    rows = path.read_text().splitlines()
    for bad in (rows[3].rsplit(",", 1)[0], rows[3] + ",extra"):
        path.write_text("\n".join(rows[:3] + [bad] + rows[4:]) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            DataStore.read_csv(path)


# ---------------------------------------------------------------------------
# replay sampling
# ---------------------------------------------------------------------------

def test_replay_single_point_store(rng):
    store = DataStore()
    store.append([_pt(0.5, 0.5, 1.0, 0.5)])
    assert replay_sample(store, 100, rng) == [0]


def test_replay_subset_property(rng):
    store = DataStore()
    X = _random_inputs(rng, 300)
    store.append([_pt(*x, 0.5) for x in X])
    idx = replay_sample(store, 50, rng)
    assert len(idx) == len(set(idx)) <= 50
    assert all(0 <= i < len(store) for i in idx)


def test_replay_recovers_unit_box_corners(rng):
    # 8 corner points, 64 LHS draws: every corner is someone's nearest
    # neighbor (brute-force oracle = the corner with matching octant)
    store = DataStore()
    for cx in (0.0, 1.0):
        for cy in (0.0, 1.0):
            for cr in (0.5, 2.5):
                store.append([_pt(cx, cy, cr, 0.5)])
    idx = replay_sample(store, 64, rng)
    assert idx == list(range(8))


def test_replay_coverage_regular_grid(rng):
    # balanced Voronoi cells: M = 10 |store| eventually samples everyone
    store = DataStore()
    g = np.linspace(0.1, 0.9, 3)
    for a in g:
        for b in g:
            for c in g:
                store.append([_pt(a, b, 0.5 + 2 * c, 0.5)])
    idx = replay_sample(store, 10 * len(store), rng)
    assert idx == list(range(len(store)))


def test_replay_empty_store_raises(rng):
    with pytest.raises(ValueError):
        replay_sample(DataStore(), 10, rng)


# ---------------------------------------------------------------------------
# lm_train
# ---------------------------------------------------------------------------

def test_lm_constant_target(rng):
    model = SurrogateModel.new_random(0, rng, hidden=1, scaling=SC)
    X = _random_inputs(rng, 40)
    data = TrainingSet.assemble([_pt(*x, 0.3) for x in X])
    trained, rep = lm_train(model, data, LearnerConfig(goal_mse=1e-13))
    assert rep.goal_met
    assert rep.final_mse <= 1e-12
    assert rep.iterations <= 10
    assert trained.eval_batch([[0.5, 0.5, 1.0]])[0] == pytest.approx(0.3,
                                                           abs=1e-4)


def test_lm_recovers_perturbed_teacher(rng):
    teacher = SurrogateModel.new_random(0, rng, hidden=3, scaling=SC)
    X = _random_inputs(rng, 200)
    data = _training_set(teacher, X)
    w0 = teacher.as_weight_vector()
    student = teacher.with_weight_vector(w0 + 0.05 * rng.standard_normal(w0.size))
    cfg = LearnerConfig(goal_mse=1e-14, max_iterations=300)
    trained, rep = lm_train(student, data, cfg)
    assert rep.final_mse <= 1e-10


def test_lm_already_optimal_returns_unchanged(rng):
    teacher = SurrogateModel.new_random(0, rng, hidden=2, scaling=SC)
    X = _random_inputs(rng, 60)
    data = _training_set(teacher, X)
    trained, rep = lm_train(teacher, data, CFG)
    assert rep.iterations == 0
    assert np.array_equal(trained.as_weight_vector(), teacher.as_weight_vector())


def test_lm_never_increases_mse(rng):
    # seeded fixture sweep over 20 teacher/student pairs
    for seed in range(20):
        r = np.random.default_rng(seed)
        teacher = SurrogateModel.new_random(0, r, hidden=3, scaling=SC)
        model = SurrogateModel.new_random(0, r, hidden=2, scaling=SC)
        X = _random_inputs(r, 50)
        data = TrainingSet.assemble(
            _points_from_model(teacher, X, w=r.uniform(0.2, 1.0)))
        cfg = LearnerConfig(max_iterations=int(r.integers(1, 40)))
        _, rep = lm_train(model, data, cfg)
        assert rep.final_mse <= rep.initial_mse


def test_lm_new_data_weight_factor():
    # two conflicting targets at one input: the optimum bias is the
    # weighted mean of the scaled targets, new point counted 5x
    model = SurrogateModel.constant(0, 0.5, scaling=SC)
    pts_old = [_pt(0.5, 0.5, 1.65, 0.30)]
    pts_new = [_pt(0.5, 0.5, 1.65, 0.70)]
    data = TrainingSet.assemble(pts_new, pts_old)
    cfg = LearnerConfig(goal_mse=1e-30, max_iterations=400,
                        new_data_weight_factor=5.0)
    trained, rep = lm_train(model, data, cfg)
    za, zb = transform(0.7), transform(0.3)
    expected = (5.0 * za + zb) / 6.0
    got = trained.eval_scaled(trained.scale_inputs(
        np.array([[0.5, 0.5, 1.65]])))[0]
    assert got == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# node growth
# ---------------------------------------------------------------------------

def test_init_new_node_zero_residual(rng):
    teacher = SurrogateModel.new_random(0, rng, hidden=3, scaling=SC)
    X = _random_inputs(rng, 80)
    data = _training_set(teacher, X)
    grown = teacher.add_node()
    initialized = init_new_node(grown, data, CFG, rng)
    # residual is zero: the new node's output weight collapses
    Z = teacher.scale_inputs(X)
    before = teacher.eval_scaled(Z)
    after = initialized.eval_scaled(Z)
    assert np.max(np.abs(after - before)) <= 1e-10


def test_init_new_node_planted_solution(rng):
    base = SurrogateModel.new_random(0, rng, hidden=2, scaling=SC)
    X = _random_inputs(rng, 300)
    Z = base.scale_inputs(X)
    a, b, c = 1.4, -0.3, 0.8
    zeta = base.eval_scaled(Z) + c * np.tanh(a * Z[:, 0] + b)
    from colnmpc.surrogate import untransform
    targets = untransform(zeta)
    data = TrainingSet.assemble(
        [_pt(*X[i], targets[i]) for i in range(X.shape[0])])
    grown = base.add_node()
    initialized = init_new_node(grown, data, CFG, rng)
    pred = initialized.eval_scaled(Z)
    mse = float(np.mean((pred - zeta) ** 2))
    assert mse <= 1e-8


def test_init_new_node_requires_fresh_node(rng):
    model = SurrogateModel.new_random(0, rng, hidden=2, scaling=SC)
    X = _random_inputs(rng, 10)
    with pytest.raises(ValueError):
        init_new_node(model, _training_set(model, X), CFG, rng)


def test_grow_and_train_no_growth_needed(rng):
    teacher = SurrogateModel.new_random(0, rng, hidden=3, scaling=SC)
    X = _random_inputs(rng, 100)
    data = _training_set(teacher, X)
    trained, rep = grow_and_train(teacher, data, CFG, rng)
    assert rep.goal_met and rep.nodes_added == 0


def test_grow_and_train_reaches_teacher_complexity(rng):
    teacher = SurrogateModel.new_random(0, rng, hidden=6, scaling=SC)
    X = _random_inputs(rng, 600)
    data = _training_set(teacher, X)
    student = SurrogateModel.new_random(1, rng, hidden=3, scaling=SC)
    trained, rep = grow_and_train(student, data, CFG, rng)
    assert rep.goal_met
    assert trained.hidden_count <= CFG.max_nodes
    assert rep.nodes_added >= 1


def test_grow_and_train_cap_equals_lm_train(rng):
    model = SurrogateModel.new_random(0, rng, hidden=3, scaling=SC)
    teacher = SurrogateModel.new_random(1, rng, hidden=6, scaling=SC)
    X = _random_inputs(rng, 150)
    data = _training_set(teacher, X)
    cfg = LearnerConfig(max_nodes=3)  # no growth allowed
    g_model, g_rep = grow_and_train(model, data, cfg, rng)
    l_model, l_rep = lm_train(model, data, cfg)
    assert g_rep.nodes_added == 0
    assert np.array_equal(g_model.as_weight_vector(), l_model.as_weight_vector())
    assert g_rep.final_mse == l_rep.final_mse


def _sha256(model):
    return hashlib.sha256(model.as_weight_vector().tobytes()).hexdigest()


def test_learner_trajectory_pin():
    # the learner's exact trajectory on a fixed problem: weighted points,
    # 30 of them new (weight factor 5), growth up to the node cap, and a
    # node initialized on its own; any change to the LM steps, damping,
    # objectives or random draws moves these bits (for one numpy and BLAS)
    _check_learner_trajectory()


def test_learner_trajectory_pin_numpy_learner(numpy_learner):
    # the same bits on the numpy loop, the compiled fits' reference
    _check_learner_trajectory()


def _check_learner_trajectory():
    r = np.random.default_rng(20201125)
    teacher = SurrogateModel.new_random(0, r, hidden=5, scaling=SC)
    student = SurrogateModel.new_random(0, r, hidden=2, scaling=SC)
    X = _random_inputs(r, 120)
    y = teacher.eval_batch(X)
    w = r.uniform(0.2, 1.0, 120)
    pts = [_pt(*X[i], y[i], w=w[i]) for i in range(120)]
    data = TrainingSet.assemble(pts[:30], pts[30:])
    cfg = LearnerConfig(max_iterations=40, max_nodes=5)

    trained, rep = grow_and_train(student, data, cfg,
                                  np.random.default_rng(7))
    assert (rep.iterations, rep.nodes_added) == (160, 3)
    assert rep.final_mse.hex() == "0x1.39560c3c6f4e8p-17"
    assert _sha256(trained) == ("efa9009d7aa1dc69ee4f25407158cbe0"
                                "dd9a585907bb2197125a05336bc9273b")

    node = init_new_node(student.add_node(), data, cfg,
                         np.random.default_rng(8))
    assert _sha256(node) == ("2b2c33be70a964d528874fbc4635f576"
                             "492d21c51e1f6b8196078528efc76a78")


def test_grow_never_increases_mse(rng):
    for seed in range(10):
        r = np.random.default_rng(1000 + seed)
        teacher = SurrogateModel.new_random(0, r, hidden=5, scaling=SC)
        model = SurrogateModel.new_random(0, r, hidden=2, scaling=SC)
        X = _random_inputs(r, 120)
        data = _training_set(teacher, X)
        cfg = LearnerConfig(max_iterations=30, max_nodes=5)
        _, rep = grow_and_train(model, data, cfg, r)
        assert rep.final_mse <= rep.initial_mse


# ---------------------------------------------------------------------------
# adapt
# ---------------------------------------------------------------------------

def _fresh_setup(rng, n_sections=4):
    models = [SurrogateModel.new_random(k, rng, hidden=3, scaling=SC)
              for k in range(n_sections)]
    stores = [DataStore() for _ in range(n_sections)]
    return models, stores


def test_adapt_no_new_points(rng):
    models, stores = _fresh_setup(rng)
    out, reports = adapt(models, [[], [], [], []], stores, CFG, rng)
    assert all(o is m for o, m in zip(out, models))
    assert reports == [None] * 4


def test_adapt_skips_below_floor(rng):
    models, stores = _fresh_setup(rng)
    pts = [[_pt(0.4, 0.5, 1.0, 0.3, w=1e-6)], [], [], []]
    out, reports = adapt(models, pts, stores, CFG, rng)
    assert out[0] is models[0]
    assert reports[0] is None
    assert stores[0].n_discarded == 1


def test_adapt_first_call_equals_batch_training(rng):
    # with an empty history the replay adds nothing beyond the new data;
    # an easily representable target keeps growth (and hence rng use) out
    # of the picture, so the outcome must be bitwise the batch result
    _check_adapt_equals_batch(rng)


def test_adapt_first_call_equals_batch_training_numpy_learner(rng,
                                                             numpy_learner):
    _check_adapt_equals_batch(rng)


def _check_adapt_equals_batch(rng):
    models, stores = _fresh_setup(rng)
    X = _random_inputs(rng, 60)
    pts = [_pt(*x, 0.37) for x in X]
    out, reports = adapt(models, [pts, [], [], []], stores, CFG,
                         np.random.default_rng(777))
    batch_model, batch_rep = grow_and_train(
        models[0], TrainingSet.assemble(pts), CFG, np.random.default_rng(1))
    assert reports[0].nodes_added == 0
    assert np.array_equal(out[0].as_weight_vector(),
                          batch_model.as_weight_vector())
    assert reports[0].final_mse == batch_rep.final_mse
    assert len(stores[0]) == 60
    # the bits both learner paths give (for one numpy and BLAS)
    assert reports[0].final_mse.hex() == "0x1.8c19009a118b9p-22"
    assert _sha256(out[0]) == ("b266884e08d184decaf57307846a6902"
                               "09e8afdb797ff34b3e37677fb6a6e1e2")


def test_adapt_fault_isolation(rng):
    models, stores = _fresh_setup(rng)
    # section 0's model is a string, so its training raises and the error
    # is recorded; section 1 gets the same points with a real model and
    # still trains; sections 2 and 3 get no points
    teacher = SurrogateModel.new_random(9, rng, hidden=2, scaling=SC)
    X = _random_inputs(rng, 30)
    pts0 = _points_from_model(teacher, X)
    bad_model = "not a model"
    out, reports = adapt([bad_model, models[1], models[2], models[3]],
                         [pts0, pts0, [], []], stores, CFG, rng)
    assert reports[0] is not None and reports[0].error  # failed, recorded
    assert out[0] is bad_model
    assert reports[1] is not None and reports[1].error == ""
    assert reports[1].final_mse <= 1e-6 or reports[1].goal_met


def test_adapt_deterministic(rng):
    teacher = SurrogateModel.new_random(9, rng, hidden=4, scaling=SC)
    X = _random_inputs(rng, 80)
    pts = _points_from_model(teacher, X)

    def run(seed):
        r = np.random.default_rng(123)
        models, stores = _fresh_setup(r)
        out, _ = adapt(models, [pts, pts, pts, pts], stores, CFG,
                       np.random.default_rng(seed))
        return np.concatenate([m.as_weight_vector() for m in out])

    assert np.array_equal(run(5), run(5))
