"""Public output contract: CSV columns and JSON field names per command.

Every CSV is RFC 4180 (CRLF, comma separated, '.' decimal) with values
written in shortest round-trip double precision, so identical configs
reproduce identical bytes.  Manifests carry timestamps and are exempt from
the byte-identity guarantee; everything else listed here is covered by it.
JSON is strict RFC 8259, which has no NaN or Infinity: a float with no
finite value is written null, which means "no bound" for a suite's
`tolerance` and "unset" for `bracket_lo`/`bracket_hi` in a manifest's
config snapshot.

The flow's tables carry the energies E1 = |d_y eps|^2, E2 = |H eps|^2 and
E2_hat (E2 with zeta_b added to eps), with E2_hat/lambda^2 the monitored
Lyapunov quantity.  |H^2 eps|^2 is not written: on a sampled flow state it
measures the interpolation noise of four differences, not eps, and a
1e-11 relative shift of lambda moves it by up to 0.28 relative.
"""

TRAJECTORY_CSV = ("s", "t", "b", "lambda")

FIT_JSON = ("kappa", "exponent", "residual", "T_est", "window_lo", "window_hi")

# The scaled columns keep their historical normalizations.  ratio_w8 =
# norm_w8/b^6 is not a constant: the inner-zone residual is b^2 c_b T1, so it
# is about c_b^2 * 0.00533 / b^2.  flux_scaled = flux_ratio |log b| / b^2 is
# the radiation flux only once the support [0, 2M] of Phi_M lies on the
# radiation plateau, 2M <= B0/4 (b <= 6.25e-6 at M = 50).
PROFILE_SUMMARY_CSV = (
    "b", "c_b", "d_b", "norm_H", "norm_w8", "norm_H2", "flux_ratio",
    "ratio_H", "ratio_w8", "ratio_H2", "flux_scaled",
)

ERROR_REPORT_JSON = ("variant", "b", "norm_H", "norm_w8", "norm_H2", "flux_ratio")

CHECKPOINT_CSV = (
    "step", "t", "s", "lambda", "b", "kappa", "E", "E1", "E2", "E2_hat",
    "u_max", "res_phi", "res_hphi", "decomposed",
)

DIAGNOSTIC_CSV = (
    "s", "b", "lam_residual", "b_residual", "E2_ratio", "kappa_ratio",
)

LYAPUNOV_CSV = ("t", "E2hat_over_lam2")

SHOOT_HISTORY_CSV = ("iteration", "a_lo", "a_hi")

SUITE_JSON = ("name", "samples", "worst_ratio", "violated", "tolerance")

MANIFEST_JSON = (
    "artifact", "version", "command", "config", "started", "finished",
    "ok", "termination", "files", "metrics",
)
