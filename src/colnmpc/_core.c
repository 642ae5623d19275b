/* Compiled full-order prediction segment: the augmented full-order column
 * model [tray compositions, tracking quadrature] integrated by the SDIRK4
 * loop of integrate.py, with forward sensitivities, in one call.
 *
 * The kernels keep the operations, in the order, of kernels.full_rhs,
 * full_state_jac and full_input_jac and of ocp's quadrature row.  The loop
 * mirrors integrate._run statement for statement (tableau, initial step,
 * clipping, step control, Newton test, counters, failure paths).  Only
 * the linear algebra differs: the stage matrix I - h*gamma*J is block
 * lower-triangular (a tridiagonal column block plus the quadrature row), so
 * it is factored by a tridiagonal LU without pivoting and the quadrature
 * unknown follows by substitution.  A zero or non-finite pivot is a failed
 * factorization, as an exactly singular matrix is for LAPACK getrf.
 *
 * Build and load: see _native.py.
 */
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define STAGES 5
#define NEWTON_MAXITER 8

static const double GAM = 0.25;
static const double C[STAGES] = {0.25, 0.75, 11.0 / 20.0, 0.5, 1.0};
static const double A[STAGES][STAGES] = {
    {0.25, 0.0, 0.0, 0.0, 0.0},
    {0.5, 0.25, 0.0, 0.0, 0.0},
    {17.0 / 50.0, -1.0 / 25.0, 0.25, 0.0, 0.0},
    {371.0 / 1360.0, -137.0 / 2720.0, 15.0 / 544.0, 0.25, 0.0},
    {25.0 / 24.0, -49.0 / 48.0, 125.0 / 16.0, -85.0 / 12.0, 0.25},
};
/* b - b_hat of the embedded third-order solution */
static const double E[STAGES] = {
    25.0 / 24.0 - 59.0 / 48.0, -49.0 / 48.0 - -17.0 / 96.0,
    125.0 / 16.0 - 225.0 / 32.0, -85.0 / 12.0 - -85.0 / 12.0, 0.25 - 0.0};
static const double ERR_EXP = -0.25;
static const double MIN_FACTOR = 0.1;
static const double MAX_FACTOR = 10.0;
static const double SAFETY = 0.9;

enum { OK = 0, STEP_LIMIT = 1, UNDERFLOW = 2, NONFINITE_START = 3,
       NO_MEMORY = 4 };
enum { STEPS, ACCEPTED, REJECTED, NEWTON_FAILURES, NFEV, NJEV, NLU };

typedef struct {
    int n, feed, liquid_lf;  /* liquid into stage i is L+F for i < liquid_lf */
    double L, V, F, xF, alpha, spB, spD;
    const double *H;
    double *y_eq;            /* scratch (n) */
} Column;

/* State Jacobian of the augmented system: tridiagonal column block and the
 * quadrature row (qB, qD in columns 0 and n-1); gL, gV is d f / d(L, V) of
 * the column block, filled only where sensitivities need it. */
typedef struct {
    double *sub, *dia, *sup, *gL, *gV;
    double qB, qD;
} Jac;

/* Factors of I - hg*J: unit lower l, upper diagonal u and superdiagonal
 * sup of the column block, and the quadrature row (rB, rD). */
typedef struct {
    double *l, *u, *sup;
    double rB, rD;
} Lu;

/* numpy's pairwise summation, so that norms add in numpy's order */
static double pw_sum(const double *a, long n)
{
    long i;
    if (n < 8) {
        double res = -0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i]; r[1] += a[i + 1]; r[2] += a[i + 2];
            r[3] += a[i + 3]; r[4] += a[i + 4]; r[5] += a[i + 5];
            r[6] += a[i + 6]; r[7] += a[i + 7];
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pw_sum(a, i) + pw_sum(a + i, n - i);
}

/* sqrt(mean(v**2)) in numpy's order; tmp has len entries */
static double rms(const double *v, long len, double *tmp)
{
    long i;
    for (i = 0; i < len; i++)
        tmp[i] = v[i] * v[i];
    return sqrt(pw_sum(tmp, len) / (double)len);
}

static int all_finite(const double *v, long len)
{
    long i;
    for (i = 0; i < len; i++)
        if (!isfinite(v[i]))
            return 0;
    return 1;
}

/* kernels.full_rhs plus the quadrature (spB - x_B)^2 + (spD - x_D)^2 */
static void column_rhs(const Column *c, const double *x, double *f)
{
    const int n = c->n;
    const double a = c->alpha, L = c->L, V = c->V, LF = L + c->F;
    double *y = c->y_eq;
    double dev_b, dev_d;
    int i;
    for (i = 0; i < n; i++)
        y[i] = a * x[i] / (1.0 + (a - 1.0) * x[i]);
    f[0] = (LF * (x[1] - x[0]) + V * (x[0] - y[0])) / c->H[0];
    for (i = 1; i < n - 1; i++) {
        double acc = (i < c->liquid_lf ? LF : L) * (x[i + 1] - x[i])
                     + V * (y[i - 1] - y[i]);
        if (i == c->feed)
            acc += c->F * (c->xF - x[i]);
        f[i] = acc / c->H[i];
    }
    f[n - 1] = V * (y[n - 2] - x[n - 1]) / c->H[n - 1];
    dev_b = c->spB - x[0];
    dev_d = c->spD - x[n - 1];
    f[n] = dev_b * dev_b + dev_d * dev_d;
}

/* kernels.full_state_jac (plus full_input_jac when inputs) and the
 * quadrature row */
static void column_jac(const Column *c, const double *x, Jac *J, int inputs)
{
    const int n = c->n;
    const double a = c->alpha, L = c->L, V = c->V, F = c->F, LF = L + F;
    const double *H = c->H;
    double *dy = c->y_eq;
    int i;
    for (i = 0; i < n; i++) {
        double d = 1.0 + (a - 1.0) * x[i];
        dy[i] = a / (d * d);
    }
    J->dia[0] = (-LF + V * (1.0 - dy[0])) / H[0];
    for (i = 1; i < n - 1; i++) {
        double diag = -(i < c->liquid_lf ? LF : L) - V * dy[i];
        if (i == c->feed)
            diag -= F;
        J->dia[i] = diag / H[i];
    }
    J->dia[n - 1] = -V / H[n - 1];
    for (i = 1; i < n; i++)
        J->sub[i] = V * dy[i - 1] / H[i];
    for (i = 0; i < n - 1; i++)
        J->sup[i] = (i < c->liquid_lf ? LF : L) / H[i];
    J->qB = -2.0 * (c->spB - x[0]);
    J->qD = -2.0 * (c->spD - x[n - 1]);
    if (!inputs)
        return;
    for (i = 0; i < n; i++)
        dy[i] = a * x[i] / (1.0 + (a - 1.0) * x[i]);  /* now y */
    for (i = 0; i < n - 1; i++)
        J->gL[i] = (x[i + 1] - x[i]) / H[i];
    J->gL[n - 1] = 0.0;
    J->gV[0] = (x[0] - dy[0]) / H[0];
    for (i = 1; i < n - 1; i++)
        J->gV[i] = (dy[i - 1] - dy[i]) / H[i];
    J->gV[n - 1] = (dy[n - 2] - x[n - 1]) / H[n - 1];
}

static void jac_copy(Jac *dst, const Jac *src, int n)
{
    memcpy(dst->sub, src->sub, n * sizeof(double));
    memcpy(dst->dia, src->dia, n * sizeof(double));
    memcpy(dst->sup, src->sup, n * sizeof(double));
    dst->qB = src->qB;
    dst->qD = src->qD;
}

/* Factor I - hg*J; returns 0 on a zero or non-finite pivot. */
static int lu_factor(const Jac *J, double hg, int n, Lu *lu)
{
    double piv = 1.0 - hg * J->dia[0];
    int i;
    if (piv == 0.0 || !isfinite(piv))
        return 0;
    lu->u[0] = piv;
    for (i = 1; i < n; i++) {
        double l;
        lu->sup[i - 1] = 0.0 - hg * J->sup[i - 1];
        l = (0.0 - hg * J->sub[i]) / lu->u[i - 1];
        piv = (1.0 - hg * J->dia[i]) - l * lu->sup[i - 1];
        if (piv == 0.0 || !isfinite(piv))
            return 0;
        lu->l[i] = l;
        lu->u[i] = piv;
    }
    lu->rB = 0.0 - hg * J->qB;
    lu->rD = 0.0 - hg * J->qD;
    return 1;
}

/* Solve (I - hg*J) x = b in place; b has n + 1 entries. */
static void lu_solve(const Lu *lu, int n, double *b)
{
    int i;
    for (i = 1; i < n; i++)
        b[i] -= lu->l[i] * b[i - 1];
    b[n - 1] /= lu->u[n - 1];
    for (i = n - 2; i >= 0; i--)
        b[i] = (b[i] - lu->sup[i] * b[i + 1]) / lu->u[i];
    b[n] = b[n] - (lu->rB * b[0] + lu->rD * b[n - 1]);
}

/* integrate._initial_step */
static double initial_step(const Column *c, const double *y0,
                           const double *f0, double span, double rtol,
                           double atol, long N, double *sc, double *v,
                           double *f1, double *tmp)
{
    double d0, d1, d2, h0, h1, m;
    long k;
    for (k = 0; k < N; k++)
        sc[k] = atol + rtol * fabs(y0[k]);
    for (k = 0; k < N; k++)
        v[k] = y0[k] / sc[k];
    d0 = rms(v, N, tmp);
    for (k = 0; k < N; k++)
        v[k] = f0[k] / sc[k];
    d1 = rms(v, N, tmp);
    h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    if (0.1 * span < h0)
        h0 = 0.1 * span;
    for (k = 0; k < N; k++)
        v[k] = y0[k] + h0 * f0[k];
    column_rhs(c, v, f1);
    for (k = 0; k < N; k++)
        v[k] = (f1[k] - f0[k]) / sc[k];
    d2 = rms(v, N, tmp) / h0;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = h0 * 1e-3;
        if (h1 < 1e-6)
            h1 = 1e-6;
    } else {
        m = d1 < d2 ? d2 : d1;
        h1 = pow(0.01 / m, 0.2);
    }
    m = 100.0 * h0;
    if (h1 < m)
        m = h1;
    return span < m ? span : m;
}

/* integrate._newton_stage; returns 1 when converged */
static int newton_stage(const Column *c, double *Y, const double *pred,
                        double hg, const Lu *lu, const double *sc, long N,
                        long long *stats, double *f, double *d)
{
    double norm, norm_prev = -1.0;
    long k;
    int it;
    for (it = 0; it < NEWTON_MAXITER; it++) {
        stats[NFEV] += 1;
        column_rhs(c, Y, f);
        for (k = 0; k < N; k++)
            d[k] = -(Y[k] - pred[k] - hg * f[k]);
        if (!all_finite(d, N))
            return 0;
        lu_solve(lu, c->n, d);
        for (k = 0; k < N; k++) {
            Y[k] = Y[k] + d[k];
            d[k] = d[k] / sc[k];
        }
        norm = rms(d, N, f);
        if (norm < 0.03)
            return 1;
        if (norm_prev >= 0.0 && norm > 2.0 * norm_prev)
            return 0;  /* diverging */
        norm_prev = norm;
    }
    return 0;
}

static void jac_bind(Jac *J, double **p, int n, int inputs)
{
    J->sub = *p; *p += n;
    J->dia = *p; *p += n;
    J->sup = *p; *p += n;
    if (inputs) {
        J->gL = *p; *p += n;
        J->gV = *p; *p += n;
    } else {
        J->gL = J->gV = NULL;
    }
}

static void lu_bind(Lu *lu, double **p, int n)
{
    lu->l = *p; *p += n;
    lu->u = *p; *p += n;
    lu->sup = *p; *p += n;
}

/* One prediction segment [t0, t1] of the augmented full-order model.
 *
 * n, feed, holdup  column size, feed stage index, holdups (n)
 * model            L, V, F, x_F, alpha, setpoint x_B, setpoint x_D
 * h_init           first step size, or <= 0 to estimate one
 * y                state (n + 1): start on entry, end on return OK
 * n_p, sens        with n_p > 0: d y / d p (n_p columns of n + 1), start on
 *                  entry and end on return OK; L and V are the last two
 *                  parameters.  With n_p == 0 only the states are carried.
 * stats            steps accepted rejected newton_failures nfev njev nlu
 * times            out: [t when the loop stopped, accepted step size]
 *
 * Returns OK, STEP_LIMIT, UNDERFLOW, NONFINITE_START or NO_MEMORY.
 */
int colnmpc_full_segment(int n, int feed, const double *holdup,
                         const double *model, double t0, double t1,
                         double h_init, double rtol, double atol,
                         long long max_steps, double *y, int n_p,
                         double *sens, long long *stats, double *times)
{
    const long N = n + 1, NS = (long)n_p * N;
    const int with_sens = n_p > 0;
    Column col;
    Jac Jn, Jst;
    Lu lu, lus;
    double *mem, *p, *f0, *fbuf, *Y, *pred, *d, *sc, *tmp, *K, *Ks, *base,
        *Snew, *Stmp;
    const double *f_start;   /* rhs at y; after a step, a view of K[4] */
    /* Jn is the Jacobian at (t_jn, y); NAN: none */
    double t = t0, span = t1 - t0, h, h_accepted, t_jn = NAN, t_stage = 0.0;
    int status = OK, i, j, q;
    long k;

    memset(stats, 0, 7 * sizeof(long long));
    times[0] = t0;
    times[1] = 0.0;
    mem = malloc(sizeof(double) * (n + 7 * N + STAGES * N + 14 * n
                                   + (with_sens ? STAGES * NS + 3 * NS : 0)));
    if (!mem)
        return NO_MEMORY;
    p = mem;
    col.y_eq = p; p += n;
    f0 = p; p += N;
    fbuf = p; p += N;
    Y = p; p += N;
    pred = p; p += N;
    d = p; p += N;
    sc = p; p += N;
    tmp = p; p += N;
    K = p; p += STAGES * N;
    jac_bind(&Jn, &p, n, 0);
    jac_bind(&Jst, &p, n, 1);
    lu_bind(&lu, &p, n);
    lu_bind(&lus, &p, n);
    Ks = base = Snew = Stmp = NULL;
    if (with_sens) {
        Ks = p; p += STAGES * NS;
        base = p; p += NS;
        Snew = p; p += NS;
        Stmp = p; p += NS;
    }
    col.n = n;
    col.feed = (0 < feed && feed < n - 1) ? feed : -1;
    col.liquid_lf = feed > 1 ? feed : 1;
    col.L = model[0];
    col.V = model[1];
    col.F = model[2];
    col.xF = model[3];
    col.alpha = model[4];
    col.spB = model[5];
    col.spD = model[6];
    col.H = holdup;

    stats[NFEV] += 1;
    column_rhs(&col, y, f0);
    if (!all_finite(f0, N)) {
        free(mem);
        return NONFINITE_START;
    }
    if (h_init > 0.0) {
        h = h_init < span ? h_init : span;
    } else {
        stats[NFEV] += 1;
        h = initial_step(&col, y, f0, span, rtol, atol, N, sc, d, fbuf, tmp);
    }
    h_accepted = h;
    f_start = f0;

    for (;;) {
        double hg, err, factor, h_next;
        int clipped, failed = 0;
        if (stats[STEPS] >= max_steps) {
            status = STEP_LIMIT;
            break;
        }
        clipped = h > t1 - t;
        if (clipped)
            h = t1 - t;
        if (h < 16.0 * DBL_EPSILON * (fabs(t) > 1.0 ? fabs(t) : 1.0)) {
            status = UNDERFLOW;
            break;
        }
        stats[STEPS] += 1;
        hg = h * GAM;
        /* y is unchanged since the last Jacobian at time t (a rejected
         * step, or the stage-5 Jacobian of the step that ended here) */
        if (t_jn != t) {
            stats[NJEV] += 1;
            column_jac(&col, y, &Jn, 0);
            t_jn = t;
        }
        if (!lu_factor(&Jn, hg, n, &lu)) {
            stats[NEWTON_FAILURES] += 1;
            h *= 0.3;
            continue;
        }
        stats[NLU] += 1;

        for (k = 0; k < N; k++)
            sc[k] = atol + rtol * fabs(y[k]);
        for (i = 0; i < STAGES; i++) {
            const double ti = t + C[i] * h;
            const double *prev = i ? K + (i - 1) * N : f_start;
            for (k = 0; k < N; k++) {
                if (i) {
                    double acc = A[i][0] * K[k];
                    for (j = 1; j < i; j++)
                        acc += A[i][j] * K[j * N + k];
                    pred[k] = y[k] + h * acc;
                } else {
                    pred[k] = y[k];
                }
                Y[k] = pred[k] + hg * prev[k];
            }
            if (!newton_stage(&col, Y, pred, hg, &lu, sc, N, stats, fbuf,
                              d)) {
                failed = 1;
                break;
            }
            for (k = 0; k < N; k++)
                K[i * N + k] = (Y[k] - pred[k]) / hg;
            if (!with_sens)
                continue;
            stats[NJEV] += 1;
            column_jac(&col, Y, &Jst, 1);
            t_stage = ti;
            for (k = 0; k < NS; k++) {
                if (i) {
                    double acc = A[i][0] * Ks[k];
                    for (j = 1; j < i; j++)
                        acc += A[i][j] * Ks[j * NS + k];
                    base[k] = sens[k] + h * acc;
                } else {
                    base[k] = sens[k];
                }
            }
            if (!lu_factor(&Jst, hg, n, &lus)) {
                failed = 1;
                break;
            }
            stats[NLU] += 1;
            memcpy(Stmp, base, NS * sizeof(double));
            for (k = 0; k < n; k++) {
                Stmp[(n_p - 2) * N + k] += hg * Jst.gL[k];
                Stmp[(n_p - 1) * N + k] += hg * Jst.gV[k];
            }
            for (q = 0; q < n_p; q++)
                lu_solve(&lus, n, Stmp + q * N);
            for (k = 0; k < NS; k++)
                Ks[i * NS + k] = (Stmp[k] - base[k]) / hg;
            if (i == STAGES - 1)
                memcpy(Snew, Stmp, NS * sizeof(double));
        }
        if (failed) {
            stats[NEWTON_FAILURES] += 1;
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }
        /* stiffly accurate: the last stage Y is the step solution */
        if (!all_finite(Y, N)) {
            stats[REJECTED] += 1;
            h *= 0.3;
            continue;
        }

        /* filtered embedded error estimate */
        for (k = 0; k < N; k++) {
            double acc = E[0] * K[k];
            for (j = 1; j < STAGES; j++)
                acc += E[j] * K[j * N + k];
            d[k] = h * acc;
        }
        lu_solve(&lu, n, d);
        for (k = 0; k < N; k++) {
            double ay = fabs(y[k]), an = fabs(Y[k]);
            d[k] = d[k] / (atol + rtol * (ay < an ? an : ay));
        }
        err = rms(d, N, tmp);

        if (err <= 1.0) {
            t = t + h;
            memcpy(y, Y, N * sizeof(double));
            /* stage 5 has c = 1: rhs at the step end.  As in _run this
             * is a view of K[4], which a later rejected step overwrites. */
            f_start = K + (STAGES - 1) * N;
            if (with_sens) {
                memcpy(sens, Snew, NS * sizeof(double));
                jac_copy(&Jn, &Jst, n);
                t_jn = t_stage;
            } else {
                t_jn = NAN;
            }
            stats[ACCEPTED] += 1;
            factor = err > 0.0 ? SAFETY * pow(err, ERR_EXP) : MAX_FACTOR;
            /* min(MAX, max(MIN, factor)) with Python's min/max */
            factor = factor > MIN_FACTOR ? factor : MIN_FACTOR;
            h_next = h * (factor < MAX_FACTOR ? factor : MAX_FACTOR);
            if (!clipped)
                h_accepted = h_next;
            if (t >= t1 - 1e-12 * (fabs(t1) > 1.0 ? fabs(t1) : 1.0)) {
                t = t1;
                break;
            }
            h = (!clipped || h_accepted < h_next) ? h_next : h_accepted;
        } else {
            stats[REJECTED] += 1;
            factor = SAFETY * pow(err, ERR_EXP);
            factor = factor > MIN_FACTOR ? factor : MIN_FACTOR;
            h *= factor < 0.5 ? factor : 0.5;
            h_accepted = h;
        }
    }
    times[0] = t;
    times[1] = status == OK ? h_accepted : 0.0;
    free(mem);
    return status;
}
