"""The full pipeline: cross-validated basis, learned feature, cross-validated
kernel ridge regression, and the four monitored quantities.

This mirrors one cell of the benchmark sweep: select (p, k) on the training
set by 5-fold validation of the loss, learn the feature, map the data through
it, select the kernel width and ridge by 10-fold validation RMSE, and report
train/test losses and errors.
"""

import numpy as np

from gradfeat import (CvGrid, FeatureBasis, build_index_set, cv_select_basis,
                      cv_select_krr, krr_fit, krr_predict, make_benchmark,
                      make_samples, poincare_loss)
from gradfeat.grassmann import learn_features

bench = make_benchmark("u3")
train = make_samples(bench, 150, seed=5)
test = make_samples(bench, 1000, seed=6)
grid = CvGrid()

p, k = cv_select_basis(train, 1, "sur", bench.families, grid, seed=5)
print(f"selected basis hyperparameters: p = {p}, k = {k}")

basis = FeatureBasis(build_index_set(8, p, k), bench.families)
fmap, info = learn_features(train, basis, 1, "sur")
print(f"learned 1 feature over K = {basis.size} basis functions")

Z_train = fmap.evaluate(train.points)
gamma, ridge, cv_rmse = cv_select_krr(Z_train, train.values, grid, seed=5)
print(f"selected kernel width gamma = {gamma:.3e}, ridge = {ridge:.3e} "
      f"(cv rmse {cv_rmse:.4f})")

model = krr_fit(Z_train, train.values, gamma, ridge)
err_train = float(np.sqrt(np.mean(
    (train.values - krr_predict(model, Z_train)) ** 2)))
err_test = float(np.sqrt(np.mean(
    (test.values - krr_predict(model, fmap.evaluate(test.points))) ** 2)))

print(f"\n{'quantity':<22} {'value':>10}")
print(f"{'train loss':<22} {info['loss_final']:>10.5f}")
print(f"{'test loss':<22} {poincare_loss(test, fmap):>10.5f}")
print(f"{'train error (rms)':<22} {err_train:>10.5f}")
print(f"{'test error (rms)':<22} {err_test:>10.5f}")
print(f"{'target std':<22} {float(np.std(test.values)):>10.5f}")
print("\none learned feature plus a one-dimensional kernel regressor "
      "explains most of the output variance.")
