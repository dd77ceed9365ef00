# Full multiple-imputation run on a mixed-type table: chained sweeps with
# the dual convergence criterion, M completed datasets, and pooling of a
# downstream estimate with within/between variance accounting.

import numpy as np

from gcmi import (
    ColumnSchema,
    DataMatrix,
    GcmiConfig,
    TrainConfig,
    gcmi_impute,
    rubin_pool,
)

rng = np.random.default_rng(5)
n = 300

# correlated continuous block plus a binary flag and a 3-level category
x1 = rng.normal(size=n)
x2 = 0.7 * x1 + 0.5 * rng.normal(size=n)
x3 = -0.6 * x1 + 0.6 * rng.normal(size=n)
flag = (x2 + 0.3 * rng.normal(size=n) > 0).astype(float)
cat = np.digitize(x3, [-0.5, 0.5]).astype(float)
values = np.column_stack([x1, x2, x3, flag, cat])

mask = rng.random((n, 5)) < 0.25
mask[0] = False
schema = [
    ColumnSchema("x1", "continuous"),
    ColumnSchema("x2", "continuous"),
    ColumnSchema("x3", "continuous"),
    ColumnSchema("flag", "binary", ("off", "on")),
    ColumnSchema("grade", "categorical", ("low", "mid", "high")),
]
dm = DataMatrix(schema, np.where(mask, np.nan, values))
print(f"table: {n} rows, 5 columns, {mask.mean():.0%} cells missing")

cfg = GcmiConfig(
    m_imputations=5,
    max_chain_iters=3,
    train=TrainConfig(max_epochs=300),
    seed=123,
)
result = gcmi_impute(dm, cfg)

print(f"\n{result.m} completed datasets in {result.wall_time_s:.1f}s")
for i, trace in enumerate(result.traces):
    gammas = ", ".join(
        f"({gn:.3f}, {gc:.3f})" for gn, gc in zip(trace.gamma_num, trace.gamma_cat)
    )
    print(f"  chain {i}: sweeps (gamma_num, gamma_cat) = {gammas}  stop: {trace.stop_reason}")

# masked-cell quality of the continuous block
for j in range(3):
    cells = mask[:, j]
    errs = [c.values[cells, j] - values[cells, j] for c in result.completed]
    print(f"column x{j+1}: per-dataset masked RMSE "
          + ", ".join(f"{np.sqrt(np.mean(e**2)):.3f}" for e in errs))

# pooling a downstream estimate: the mean of x2, with its sampling variance
estimates = []
for completed in result.completed:
    col = completed.values[:, 1]
    estimates.append((col.mean(), col.var(ddof=1) / n))
pooled = rubin_pool(estimates)
print(f"\npooled mean of x2: {pooled.point:+.4f}")
print(f"  within-imputation variance  {pooled.within_var:.2e}")
print(f"  between-imputation variance {pooled.between_var:.2e}")
print(f"  total variance              {pooled.total_var:.2e}"
      "  (between-term widens the interval for imputation uncertainty)")
print(f"  complete-data estimate      {values[:, 1].mean():+.4f}")
