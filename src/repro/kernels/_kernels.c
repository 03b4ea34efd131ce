/* Hot-path kernels for the PRQ engine, compiled once and loaded via ctypes.
 *
 * Every function here mirrors a NumPy implementation in
 * repro/kernels/fallback.py; the dispatch layer (repro/kernels/__init__.py)
 * picks this library when it compiles and `REPRO_NO_JIT` is unset.  The
 * Ruben kernel keeps the cascade's soundness contract: its [lower, upper]
 * bounds are *widened* by a small epsilon covering the numerical error of
 * the incomplete-gamma evaluations, so a bound can be looser than the
 * NumPy path's but never unsound.
 *
 * Numerical building block: igam/igamc, the regularized incomplete gamma
 * (series + continued fraction, the classical Cephes construction).
 *
 * Compile with -ffp-contract=off: fused multiply-adds would change results
 * relative to strict IEEE evaluation and complicate parity testing.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define MACHEP 1.11022302462515654042e-16
#define BIG 4.503599627370496e15
#define BIGINV 2.22044604925031308085e-16
#define MAXLOG 709.782712893383996843
#define LN2 0.693147180559945309417

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

/* ------------------------------------------------------------------ */
/* Exported kernels                                                    */
/* ------------------------------------------------------------------ */

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
 * No row gives up on a small leading weight: a_0 = exp(la0) underflows
 * once la0 < -708 (total noncentrality past ~1400), yet the series still
 * converges.  Each row carries a, S_j, T_j, wsum = sum a_k and
 * cdf = sum a_k G_k as scaled * 2^e with one integer e.  The recurrence is
 * linear and homogeneous in (a, S, T), and wsum, cdf are linear in the a_k,
 * so multiplying all five by one power of two is exact: it leaves the
 * recurrence unchanged and does not round (only a value below 2^-1022 of
 * wsum can turn subnormal, and its rounding is then far below the sums'
 * own, 2^-53 of wsum).
 * A row whose a_0 is a normal double starts at e = 0, so its bits are
 * those of the unscaled recurrence; any other starts at e = floor(la0/ln 2)
 * with scaled a_0 = exp(la0 - e ln 2) in [1, 2).  Once wsum passes 2^900
 * all five shift down by 2^-900 and e grows by 900, and the bounds read
 * ldexp(cdf, e) and ldexp(wsum, e).
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
        int e = 0; /* a, S_j, T_j, wsum and cdf are scaled by 2^-e */
        double a;  /* a_k, the latest weight */
        if (la0 >= -700.0) {
            a = exp(la0);
        } else {
            double fe = floor(la0 / LN2);
            if (!(fe > -1e9)) fe = -1e9; /* a = 0 then: still sound */
            e = (int)fe;
            a = exp(la0 - fe * LN2);
        }
        for (long j = 0; j < d; j++) {
            bnu[j] = beta * (row[j] / lam[j]);
            S[j] = T[j] = 0.0;
        }
        if (gam_len == 0) {
            gam[0] = igam_(rho / 2.0, sx);
            gam_len = 1;
        }
        double wsum = a;
        double cdf = a * gam[0];
        double gamma_k = gam[0];
        double lo = 0.0, hi = 1.0;
        int decided = 0;
        long k = 0;
        for (;;) {
            double rem = 1.0 - (e ? ldexp(wsum, e) : wsum);
            if (rem < 0.0) rem = 0.0;
            double p = e ? ldexp(cdf, e) : cdf;
            lo = clamp01_(p);
            hi = clamp01_(p + rem * gamma_k);
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
            if (wsum > 0x1p900) {
                a = ldexp(a, -900);
                wsum = ldexp(wsum, -900);
                cdf = ldexp(cdf, -900);
                for (long j = 0; j < d; j++) {
                    S[j] = ldexp(S[j], -900);
                    T[j] = ldexp(T[j], -900);
                }
                e += 900;
            }
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
