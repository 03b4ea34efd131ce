/* Hot-path kernels for the PRQ engine, compiled once and loaded via ctypes.
 *
 * Every function here mirrors a NumPy implementation in
 * repro/kernels/fallback.py; the dispatch layer (repro/kernels/__init__.py)
 * picks this library when it compiles and `REPRO_NO_JIT` is unset.  The
 * probability kernels keep the cascade's soundness contract: computed
 * [lower, upper] bounds are *widened* by a small epsilon covering the
 * numerical error of the incomplete-gamma evaluations, so a bound can be
 * looser than the NumPy path's but never unsound.
 *
 * Numerical building blocks:
 *   - igam/igamc: regularized incomplete gamma (series + continued
 *     fraction, the classical Cephes construction);
 *   - pnchisq: noncentral chi-square CDF as a Poisson mixture of central
 *     chi-square CDFs, summed outward from the modal Poisson index with
 *     log-space term recurrences, returning a conservative error bound.
 *
 * Compile with -ffp-contract=off: fused multiply-adds would change results
 * relative to strict IEEE evaluation and complicate parity testing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MACHEP 1.11022302462515654042e-16
#define BIG 4.503599627370496e15
#define BIGINV 2.22044604925031308085e-16
#define MAXLOG 709.782712893383996843

static double igamc_(double a, double x);

/* Regularized lower incomplete gamma P(a, x) by power series (x <= a+1). */
static double igam_(double a, double x) {
    if (x <= 0.0 || a <= 0.0) return 0.0;
    if (x > 1.0 && x > a) return 1.0 - igamc_(a, x);
    double ax = a * log(x) - x - lgamma(a);
    if (ax < -MAXLOG) return 0.0;
    ax = exp(ax);
    double r = a, c = 1.0, ans = 1.0;
    do {
        r += 1.0;
        c *= x / r;
        ans += c;
    } while (c / ans > MACHEP);
    return ans * ax / a;
}

/* Regularized upper incomplete gamma Q(a, x) by continued fraction. */
static double igamc_(double a, double x) {
    if (x <= 0.0 || a <= 0.0) return 1.0;
    if (x < 1.0 || x < a) return 1.0 - igam_(a, x);
    double ax = a * log(x) - x - lgamma(a);
    if (ax < -MAXLOG) return 0.0;
    ax = exp(ax);
    double y = 1.0 - a, z = x + y + 1.0, c = 0.0;
    double pkm2 = 1.0, qkm2 = x, pkm1 = x + 1.0, qkm1 = z * x;
    double ans = pkm1 / qkm1, t;
    do {
        c += 1.0;
        y += 1.0;
        z += 2.0;
        double yc = y * c;
        double pk = pkm1 * z - pkm2 * yc;
        double qk = qkm1 * z - qkm2 * yc;
        if (qk != 0.0) {
            double r = pk / qk;
            t = fabs((ans - r) / r);
            ans = r;
        } else {
            t = 1.0;
        }
        pkm2 = pkm1;
        pkm1 = pk;
        qkm2 = qkm1;
        qkm1 = qk;
        if (fabs(pk) > BIG) {
            pkm2 *= BIGINV;
            pkm1 *= BIGINV;
            qkm2 *= BIGINV;
            qkm1 *= BIGINV;
        }
    } while (t > MACHEP);
    return ans * ax;
}

static double clamp01_(double v) {
    if (v < 0.0) return 0.0;
    if (v > 1.0) return 1.0;
    return v;
}

/* Noncentral chi-square CDF P(Q <= x) for Q ~ chi2(df, nc).
 *
 * Poisson-mixture form: sum_j  Pois(j; nc/2) * P(df/2 + j, x/2).
 * Summation starts at the modal index j0 = floor(nc/2) and expands
 * outward while the enumerated Poisson mass grows toward 1, with
 * log-space recurrences for the Poisson weights and the incomplete-gamma
 * step terms t(a) = (x/2)^a e^{-x/2} / Gamma(a+1):
 *     P(a+1, x2) = P(a, x2) - t(a),   P(a-1, x2) = P(a, x2) + t(a-1).
 *
 * *err receives a conservative absolute error bound: the un-enumerated
 * Poisson mass (each missing term's gamma factor is in [0, 1]) plus an
 * allowance for the recurrence's floating-point drift.
 *
 * This log-space variant is the robust slow path; pnchisq_ below runs
 * the same recurrences in linear space (one mul per update instead of
 * log/exp) whenever the modal-index seed values cannot underflow. */
static double pnchisq_log_(double x, double df, double nc, double *err) {
    if (x <= 0.0) {
        *err = 0.0;
        return 0.0;
    }
    double x2 = 0.5 * x, hnc = 0.5 * nc;
    if (hnc < 1e-300) {
        *err = 4e-15;
        return igam_(0.5 * df, x2);
    }
    long j0 = (long)floor(hnc);
    double lw0 = -hnc + (double)j0 * log(hnc) - lgamma((double)j0 + 1.0);
    double g0 = igam_(0.5 * df + (double)j0, x2);
    double lx2 = log(x2);
    /* lt_* track log t(a) at the current edge of each direction. */
    double lt_up = (0.5 * df + (double)j0) * lx2 - x2 -
                   lgamma(0.5 * df + (double)j0 + 1.0);
    double lt_dn = lt_up;
    double lw_up = lw0, lw_dn = lw0;
    double g_up = g0, g_dn = g0;
    long j_up = j0, j_dn = j0;
    double w0 = exp(lw0);
    double sum = w0 * g0, wsum = w0;
    long steps = 0;
    int up_alive = 1, dn_alive = (j_dn > 0);
    while ((up_alive || dn_alive) && wsum < 1.0 - 1e-14 && steps < 4000000) {
        if (up_alive) {
            /* move j_up -> j_up + 1 */
            g_up -= (lt_up > -MAXLOG) ? exp(lt_up) : 0.0;
            if (g_up < 0.0) g_up = 0.0;
            lt_up += lx2 - log(0.5 * df + (double)j_up + 1.0);
            lw_up += log(hnc) - log((double)j_up + 1.0);
            j_up += 1;
            double w = exp(lw_up);
            sum += w * g_up;
            wsum += w;
            if (lw_up < -746.0 || w < 1e-18) up_alive = 0;
            steps++;
        }
        if (dn_alive) {
            /* move j_dn -> j_dn - 1 */
            lt_dn += log(0.5 * df + (double)j_dn) - lx2;
            g_dn += (lt_dn > -MAXLOG) ? exp(lt_dn) : 0.0;
            if (g_dn > 1.0) g_dn = 1.0;
            lw_dn += log((double)j_dn) - log(hnc);
            j_dn -= 1;
            double w = exp(lw_dn);
            sum += w * g_dn;
            wsum += w;
            if (j_dn == 0 || lw_dn < -746.0 || w < 1e-18) dn_alive = 0;
            steps++;
        }
    }
    double rem = 1.0 - wsum;
    if (rem < 0.0) rem = 0.0;
    *err = rem + 1e-13 + (double)steps * 4e-15;
    return clamp01_(sum);
}

/* Fast path: identical outward summation, but the Poisson weights and
 * gamma step terms advance by one multiply per step (w *= hnc/(j+1),
 * t *= x2/(a+1)) instead of log-space adds plus exp().  Valid whenever
 * the modal-index seeds w0, t0 are comfortably above the subnormal
 * range: both sequences are then unimodal with their peaks inside the
 * enumerated window, so no intermediate value ever needs magnitudes the
 * seeds could not reach.  Seeds near underflow fall back to
 * pnchisq_log_. */
static double pnchisq_(double x, double df, double nc, double *err) {
    if (x <= 0.0) {
        *err = 0.0;
        return 0.0;
    }
    double x2 = 0.5 * x, hnc = 0.5 * nc;
    if (hnc < 1e-300) {
        *err = 4e-15;
        return igam_(0.5 * df, x2);
    }
    if (hnc > 100.0) {
        /* O(1) pins for the saturated regimes.  With J ~ Pois(hnc) and
         * g(j) = P(df/2 + j, x2) decreasing in j, splitting the mixture
         * at any j_k gives
         *     CDF <= Pr[J < j_k] + g(j_k)        (upper pin at ~0)
         *     CDF >= g(j_k) - Pr[J > j_k]        (lower pin at ~1)
         * and the Chernoff bound Pr[J <= j] (j < hnc), Pr[J >= j]
         * (j > hnc) <= exp(-hnc + j + j log(hnc/j)) makes both tails
         * rigorous without enumerating any Poisson mass.  9 sigma puts
         * the tail below 3e-18. */
        double s = 9.0 * sqrt(hnc);
        double jk = floor(hnc - s);
        if (jk > 0.0) {
            double tail = exp(-hnc + jk + jk * log(hnc / jk));
            double ub = tail + igam_(0.5 * df + jk, x2);
            if (ub < 1e-14) {
                *err = ub + 1e-15; /* true value lies in [0, ub] */
                return 0.0;
            }
        }
        double jk2 = ceil(hnc + s);
        double tail2 = exp(-hnc + jk2 + jk2 * log(hnc / jk2));
        double lb = igam_(0.5 * df + jk2, x2) - tail2;
        if (lb > 1.0 - 1e-14) {
            *err = 1.0 - lb + 1e-15; /* true value lies in [lb, 1] */
            return lb;
        }
    }
    long j0 = (long)floor(hnc);
    double a0 = 0.5 * df + (double)j0;
    double lt0 = a0 * log(x2) - x2 - lgamma(a0 + 1.0);
    double lw0 = -hnc + (double)j0 * log(hnc) - lgamma((double)j0 + 1.0);
    if (lt0 < -700.0 || lw0 < -700.0) return pnchisq_log_(x, df, nc, err);
    double g0 = igam_(a0, x2);
    double t_up = exp(lt0), t_dn = t_up;
    double w_up = exp(lw0), w_dn = w_up;
    double a_up = a0, a_dn = a0;
    double j_up = (double)j0, j_dn = (double)j0;
    double g_up = g0, g_dn = g0;
    double sum = w_up * g0, wsum = w_up;
    long steps = 0;
    int up_alive = 1, dn_alive = (j0 > 0);
    while ((up_alive || dn_alive) && wsum < 1.0 - 1e-14 && steps < 4000000) {
        if (up_alive) {
            /* move j_up -> j_up + 1 */
            g_up -= t_up;
            if (g_up < 0.0) g_up = 0.0;
            t_up *= x2 / (a_up + 1.0);
            w_up *= hnc / (j_up + 1.0);
            a_up += 1.0;
            j_up += 1.0;
            sum += w_up * g_up;
            wsum += w_up;
            if (w_up < 1e-18) up_alive = 0;
            steps++;
        }
        if (dn_alive) {
            /* move j_dn -> j_dn - 1 */
            t_dn *= a_dn / x2;
            g_dn += t_dn;
            if (g_dn > 1.0) g_dn = 1.0;
            w_dn *= j_dn / hnc;
            a_dn -= 1.0;
            j_dn -= 1.0;
            sum += w_dn * g_dn;
            wsum += w_dn;
            if (j_dn <= 0.5 || w_dn < 1e-18) dn_alive = 0;
            steps++;
        }
    }
    double rem = 1.0 - wsum;
    if (rem < 0.0) rem = 0.0;
    *err = rem + 1e-13 + (double)steps * 4e-15;
    return clamp01_(sum);
}

/* ------------------------------------------------------------------ */
/* Exported kernels                                                    */
/* ------------------------------------------------------------------ */

/* Sandwich bounds: out[i] = [P(x/lam_max; df, nc_i) - eps,
 *                            P(x/lam_min; df, nc_i) + eps], clamped.   */
void repro_chi2_sandwich_block(long m, double x, double df,
                               const double *nc_totals, double lam_min,
                               double lam_max, double widen, double *out) {
    if (x <= 0.0) {
        memset(out, 0, sizeof(double) * 2 * (size_t)m);
        return;
    }
    double xlo = x / lam_max, xhi = x / lam_min;
    for (long i = 0; i < m; i++) {
        double e1, e2;
        double lo = pnchisq_(xlo, df, nc_totals[i], &e1);
        double hi = pnchisq_(xhi, df, nc_totals[i], &e2);
        out[2 * i] = clamp01_(lo - e1 - widen);
        out[2 * i + 1] = clamp01_(hi + e2 + widen);
    }
}

/* Shared-spectrum noncentralities: out[i][j] = ((mean - p_i)^T B)_j^2 / lam_j.
 * basis is row-major d x d with column eigenvectors (B[k][j] = basis[k*d+j]). */
void repro_sqdist_spectrum(long m, long d, const double *mean,
                           const double *basis, const double *eigvals,
                           const double *pts, double *out) {
    for (long i = 0; i < m; i++) {
        const double *p = pts + i * d;
        double *o = out + i * d;
        for (long j = 0; j < d; j++) {
            double s = 0.0;
            for (long k = 0; k < d; k++) {
                s += (mean[k] - p[k]) * basis[k * d + j];
            }
            o[j] = s * s / eigvals[j];
        }
    }
}

/* Batched Ruben series over a block sharing one spectrum.
 *
 * P(Q <= x) = sum_k a_k G_k with G_k = P((rho + 2k)/2, x/(2 beta)) and
 * Ruben's (1962) weights a_0 = exp(la0), a_k = (1/2k) sum_{m=1..k} g_m a_{k-m}.
 * With gamma_j = 1 - beta/lam_j and nu_j = nc_j/lam_j the coefficients are
 * sums of d geometric sequences,
 *     g_m = sum_j [h_j gamma_j^m + m beta nu_j gamma_j^(m-1)],
 * so the convolution splits into d pairs of running sums
 *     S_j(k) = sum_{m=1..k} gamma_j^m a_{k-m},
 *     T_j(k) = sum_{m=1..k} m gamma_j^(m-1) a_{k-m},
 *     a_k    = (1/2k) sum_j [h_j S_j(k) + beta nu_j T_j(k)].
 * Peeling the m = 1 term off each and shifting m gives, from
 * S_j(0) = T_j(0) = 0,
 *     S_j(k) = gamma_j (S_j(k-1) + a_{k-1}),
 *     T_j(k) = a_{k-1} + gamma_j T_j(k-1) + S_j(k-1),
 * which is O(d) per term with no a/g history.  beta = min lam puts every
 * gamma_j in [0, 1), and h, nu, a_0 are non-negative, so every product and
 * sum above is of non-negative terms: nothing cancels, and the rounding
 * error of a_k stays a few ulps per term.
 *
 * Each row runs until [partial sum, partial sum + remaining-mass * G_k]
 * decides it (theta excluded, or width < tol); theta < 0 means "no theta".
 * The G_k table is filled lazily and shared by every row (it depends on k
 * only), so a row's outputs are a function of that row alone.  Bounds are
 * widened by `widen` so floating-point drift cannot make them unsound.
 * Returns 0 on success, 1 on allocation failure. */
int repro_ruben_block(long d, long m, const double *lam, const double *h,
                      const double *ncs, double x, double theta, double tol,
                      long max_terms, double widen, double *lower,
                      double *upper, uint8_t *ok) {
    for (long i = 0; i < m; i++) {
        lower[i] = 0.0;
        upper[i] = 1.0;
        ok[i] = 1;
    }
    if (m == 0) return 0;
    if (x <= 0.0) {
        for (long i = 0; i < m; i++) upper[i] = 0.0;
        return 0;
    }
    double beta = lam[0];
    for (long j = 1; j < d; j++)
        if (lam[j] < beta) beta = lam[j];
    double rho = 0.0, log_shared = 0.0;
    for (long j = 0; j < d; j++) {
        rho += h[j];
        log_shared += h[j] * log(beta / lam[j]);
    }
    log_shared *= 0.5;
    double sx = x / (2.0 * beta);

    /* gamma_j, beta nu_j, S_j, T_j (d each), then the shared G_k table. */
    double *ratios = malloc(sizeof(double) * (size_t)(4 * d + max_terms + 1));
    if (!ratios) return 1;
    double *bnu = ratios + d, *S = bnu + d, *T = S + d, *gam = T + d;
    for (long j = 0; j < d; j++) ratios[j] = 1.0 - beta / lam[j];
    long gam_len = 0;

    for (long i = 0; i < m; i++) {
        const double *row = ncs + i * d;
        double nc_sum = 0.0;
        for (long j = 0; j < d; j++) nc_sum += row[j];
        double la0 = -0.5 * nc_sum + log_shared;
        if (la0 < -700.0) {
            ok[i] = 0; /* leading weight underflows: caller falls back */
            continue;
        }
        for (long j = 0; j < d; j++) {
            bnu[j] = beta * (row[j] / lam[j]);
            S[j] = T[j] = 0.0;
        }
        if (gam_len == 0) {
            gam[0] = igam_(rho / 2.0, sx);
            gam_len = 1;
        }
        double a = exp(la0); /* a_k, the latest weight */
        double wsum = a;
        double cdf = a * gam[0];
        double gamma_k = gam[0];
        double lo = 0.0, hi = 1.0;
        int decided = 0;
        long k = 0;
        for (;;) {
            double rem = 1.0 - wsum;
            if (rem < 0.0) rem = 0.0;
            lo = clamp01_(cdf);
            hi = clamp01_(cdf + rem * gamma_k);
            lo -= widen;
            if (lo < 0.0) lo = 0.0;
            hi += widen;
            if (hi > 1.0) hi = 1.0;
            decided = (hi - lo < tol) ||
                      (theta >= 0.0 && (lo >= theta || hi < theta));
            if (decided || k >= max_terms) break;
            k++;
            double acc = 0.0;
            for (long j = 0; j < d; j++) {
                double s = S[j];
                S[j] = ratios[j] * (s + a);
                T[j] = a + ratios[j] * T[j] + s;
                acc += h[j] * S[j] + bnu[j] * T[j];
            }
            a = acc / (2.0 * (double)k);
            wsum += a;
            if (k >= gam_len) {
                gam[k] = igam_((rho + 2.0 * (double)k) / 2.0, sx);
                gam_len = k + 1;
            }
            gamma_k = gam[k];
            cdf += a * gamma_k;
        }
        if (!decided) ok[i] = 0; /* undecided at max_terms */
        lower[i] = lo;
        upper[i] = hi;
    }
    free(ratios);
    return 0;
}

/* RR fringe filter: codes[i] = -1 (REJECT) when the point is outside the
 * rect-plus-delta-ball Minkowski region, else 0 (UNKNOWN). */
void repro_classify_rr(long m, long d, const double *pts, const double *lows,
                       const double *highs, double delta, int8_t *codes) {
    double d2 = delta * delta;
    for (long i = 0; i < m; i++) {
        const double *p = pts + i * d;
        double s = 0.0;
        for (long j = 0; j < d; j++) {
            double below = lows[j] - p[j];
            if (below < 0.0) below = 0.0;
            double above = p[j] - highs[j];
            if (above < 0.0) above = 0.0;
            double gap = below + above;
            s += gap * gap;
        }
        codes[i] = (s <= d2) ? 0 : -1;
    }
}

/* OR eigenbox filter: rotate into the eigenbasis (y = B^T (p - c)) and
 * REJECT when any |y_j| exceeds its half width. */
void repro_classify_or(long m, long d, const double *pts, const double *center,
                       const double *basis, const double *half_widths,
                       int8_t *codes) {
    for (long i = 0; i < m; i++) {
        const double *p = pts + i * d;
        int8_t code = 0;
        for (long j = 0; j < d; j++) {
            double y = 0.0;
            for (long k = 0; k < d; k++) {
                y += (p[k] - center[k]) * basis[k * d + j];
            }
            if (fabs(y) > half_widths[j]) {
                code = -1;
                break;
            }
        }
        codes[i] = code;
    }
}

/* BF radii filter: REJECT beyond alpha_upper, ACCEPT within alpha_lower
 * (has_lower = 0 reproduces the missing inner hole). */
void repro_classify_bf(long m, long d, const double *pts, const double *center,
                       double alpha_upper, double alpha_lower, int has_lower,
                       int8_t *codes) {
    for (long i = 0; i < m; i++) {
        const double *p = pts + i * d;
        double s = 0.0;
        for (long j = 0; j < d; j++) {
            double diff = p[j] - center[j];
            s += diff * diff;
        }
        double dist = sqrt(s);
        if (dist > alpha_upper) {
            codes[i] = -1;
        } else if (has_lower && dist <= alpha_lower) {
            codes[i] = 1;
        } else {
            codes[i] = 0;
        }
    }
}

/* Float32 fast path for the sandwich bounds.
 *
 * The rotated coordinates are computed in float32; a per-coordinate error
 * bound (cast + accumulation, via absolute-value sums) turns the float32
 * value into a rigorous interval [r_lo, r_hi] around the true rotation,
 * which propagates to a noncentrality interval [nc_lo, nc_hi].  The CDF is
 * monotone *decreasing* in the noncentrality, so evaluating the lower
 * bound at nc_hi and the upper bound at nc_lo keeps the sandwich sound.
 * Requires d <= 64 (enforced by the Python wrapper).                     */
void repro_chi2_sandwich_block_f32(long m, long d, const double *mean,
                                   const double *basis, const double *eigvals,
                                   const double *pts, double x, double df,
                                   double lam_min, double lam_max,
                                   double widen, double *out) {
    if (x <= 0.0) {
        memset(out, 0, sizeof(double) * 2 * (size_t)m);
        return;
    }
    float mf[64], bf[64 * 64];
    for (long k = 0; k < d; k++) mf[k] = (float)mean[k];
    for (long k = 0; k < d * d; k++) bf[k] = (float)basis[k];
    const double u32 = 5.9604644775390625e-08; /* 2^-24 */
    double xlo = x / lam_max, xhi = x / lam_min;
    for (long i = 0; i < m; i++) {
        const double *p = pts + i * d;
        float pf[64];
        for (long k = 0; k < d; k++) pf[k] = (float)p[k];
        double nc_lo = 0.0, nc_hi = 0.0;
        for (long j = 0; j < d; j++) {
            float s = 0.0f, asum = 0.0f, cerr = 0.0f;
            for (long k = 0; k < d; k++) {
                float diff = mf[k] - pf[k];
                float bkj = bf[k * d + j];
                s += diff * bkj;
                asum += fabsf(diff * bkj);
                cerr += (fabsf(mf[k]) + fabsf(pf[k])) * fabsf(bkj);
            }
            /* |s - true rotation| <= e: accumulation error on the float32
             * dot product plus the float64 -> float32 cast error of the
             * inputs, with a 2x safety factor. */
            double e = u32 * (2.0 * (double)(d + 4) * (double)asum +
                              4.0 * (double)cerr);
            double r = (double)fabsf(s);
            double rl = r - e;
            if (rl < 0.0) rl = 0.0;
            double rh = r + e;
            nc_lo += rl * rl / eigvals[j];
            nc_hi += rh * rh / eigvals[j];
        }
        double e1, e2;
        double lo = pnchisq_(xlo, df, nc_hi, &e1);
        double hi = pnchisq_(xhi, df, nc_lo, &e2);
        out[2 * i] = clamp01_(lo - e1 - widen);
        out[2 * i + 1] = clamp01_(hi + e2 + widen);
    }
}
