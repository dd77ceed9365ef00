# Generate the equicorrelated Gaussian benchmark table and punch holes in
# it under the three classic missingness mechanisms, checking each
# mechanism's statistical signature empirically.

import numpy as np

from gcmi import AmputationSpec, SyntheticSpec, ampute, gen_synthetic

spec = SyntheticSpec(n=2000, p=15, rho=0.3, seed=42)
X, Y = gen_synthetic(spec)

print("X shape:", X.shape, " Y shape:", Y.shape)
cov = np.cov(X.T)
off_diag = cov[~np.eye(15, dtype=bool)]
print(f"variances ~ 1: mean diag = {np.diag(cov).mean():.3f}")
print(f"pairwise covariance ~ rho=0.3: mean off-diag = {off_diag.mean():.3f}")

# --- MCAR: deletion is blind to the data ------------------------------
mask = ampute(X, AmputationSpec("mcar", rate=0.3, seed=1))
print(f"\nMCAR(0.3): empirical rate {mask.mean():.3f}")
print(f"  value mean where missing {X[mask].mean():+.3f} vs observed {X[~mask].mean():+.3f}"
      "  (both ~ 0: deletion ignores values)")

# --- MAR: deletion driven by four fully observed columns --------------
beta = np.full((4, 11), 0.7)
mask = ampute(X, AmputationSpec("mar", beta=beta, seed=2))
print(f"\nMAR: conditioning columns X1-X4 missing rate {mask[:, :4].mean():.3f} (always 0)")
cond_score = X[:, :4].sum(axis=1)
target_missing = mask[:, 4:].mean(axis=1)
lo = target_missing[cond_score < np.quantile(cond_score, 0.2)].mean()
hi = target_missing[cond_score > np.quantile(cond_score, 0.8)].mean()
print(f"  row missing rate when conditioning score low: {lo:.3f}, high: {hi:.3f}"
      "  (rate follows the observed covariates)")

# --- MNAR: the value itself decides -----------------------------------
mask = ampute(X, AmputationSpec("mnar", b0=-1.5, b1=3.0, seed=3))
print(f"\nMNAR(b0=-1.5, b1=3): rate {mask.mean():.3f}")
print(f"  mean of deleted cells {X[mask].mean():+.3f} vs retained {X[~mask].mean():+.3f}"
      "  (large values delete themselves)")

# --- blockwise layout: contiguous per-feature runs ---------------------
mask = ampute(X[:100], AmputationSpec("mcar", rate=0.25, seed=4, layout="blockwise"))
rows = np.flatnonzero(mask[:, 0])
print(f"\nblockwise MCAR on 100 rows: column 0 missing rows {rows.min()}..{rows.max()} "
      f"({rows.size} contiguous)")
