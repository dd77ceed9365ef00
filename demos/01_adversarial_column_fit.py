# Train a single conditional generator/discriminator pair on one column
# and watch the adversarial game settle at its theoretical fixed point:
# discriminator scores near 1 on generated values, generator loss near 0,
# and imputations that track the conditional signal instead of the mean.

import numpy as np

from gcmi import (
    ColumnSchema,
    DiscreteDist,
    TrainConfig,
    chi2_generator_objective,
    impute_column,
    optimal_discriminator,
    train_gcin,
)

rng = np.random.default_rng(0)

# a column with a real conditional signal: y = 0.8*x1 - 0.5*x2 + noise
n = 1000
X = rng.normal(size=(n, 4))
y = 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.4 * rng.normal(size=n)

# train_gcin fits a group of pairs in lock-step, one per seed, each member on
# its own (n, width) conditioning and (n,) target; here a group of one.  The
# target's ColumnSchema gives the fit its head: an identity head for a
# continuous column
col = ColumnSchema("y", "continuous")
[(pair, trace)] = train_gcin([X], [y], col, TrainConfig(max_epochs=2000), [1])

print("cycles trained:", len(trace))
print("discriminator loss:  first %.3f -> last %.3f   (balanced game = 1.0)"
      % (trace.disc_loss[0], trace.disc_loss[-1]))
print("generator loss:      first %.3f -> last %.3f   (optimum = 0.0)"
      % (trace.gen_loss[0], trace.gen_loss[-1]))
print("accuracy penalty:    first %.3f -> last %.3f"
      % (trace.acc_penalty[0], trace.acc_penalty[-1]))

# held-out imputation quality vs the naive column mean
X_new = rng.normal(size=(400, 4))
y_new = 0.8 * X_new[:, 0] - 0.5 * X_new[:, 1] + 0.4 * rng.normal(size=400)
imputed = impute_column(pair, X_new, seed=7)
rmse_pair = np.sqrt(np.mean((imputed - y_new) ** 2))
rmse_mean = np.sqrt(np.mean((y.mean() - y_new) ** 2))
print(f"\nheld-out RMSE: trained pair {rmse_pair:.3f} vs column mean {rmse_mean:.3f}")

# multiple-imputation character: fresh noise gives a different draw each seed
draws = np.stack([impute_column(pair, X_new[:5], seed=s) for s in range(4)])
print("\nfour stochastic draws for five rows:")
print(np.round(draws, 3))

# the closed-form optimum the discriminator is chasing: 2p/(p+g), equal to 1
# exactly when the generated distribution matches the data distribution
p = DiscreteDist((0, 1, 2), [0.5, 0.3, 0.2])
g = DiscreteDist((0, 1, 2), [0.3, 0.4, 0.3])
print("\ndiscrete oracle on a toy pair of distributions:")
for point in p.support:
    print(f"  optimal discriminator at {point}: {optimal_discriminator(p, g, point):.4f}")
print(f"  generator objective (half chi-square): {chi2_generator_objective(p, g):.4f}")
print(f"  ... and for identical distributions:  {chi2_generator_objective(p, p):.4f}")
