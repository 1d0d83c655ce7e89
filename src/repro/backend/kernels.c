/* Compiled kernels of the "c" backend: the fused pair kernel, the Ewald
 * reciprocal sum and the cell-block kernel that counts and lists pairs.
 * Built on first use and loaded through ctypes by
 * repro/backend/c_backend.py; the contracts are those of
 * repro/backend/base.py and the registry's parity self-check holds the
 * arithmetic to the numpy reference at 1e-9 - the lists, whose order is the
 * pair kernel's accumulation order, to array identity.
 *
 * Rules this file keeps:
 *   - re-entrant: no static or global state, no allocation (scratch comes
 *     from the caller or, fixed-size and under 16 KB a frame, from the
 *     stack), because ctypes drops the GIL for the call and the service
 *     steps several jobs from threads;
 *   - one reduction order, fixed in the source: the pair kernel takes a
 *     list a fixed number of pairs at a time, visits the in-range pairs in
 *     list order and keeps one partial sum per run of equal force rows;
 *     the other loops are serial in list order.  Compiled with
 *     -ffp-contract=off and no target flags - no fused multiply-adds - so
 *     a result depends on the inputs only, not on the host that built the
 *     object, the worker count or the thread that ran it;
 *   - arrays are C-contiguous float64; index arrays are int32 or int64 as
 *     the caller stores them (a flag says which), so no call converts;
 *   - the caller checks array lengths, the kernels check every index they
 *     are about to follow (a corrupt list is an error, not a wild write).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static const double COULOMB_CONSTANT = 332.0636; /* repro.md.constants */
static const double PI = 3.14159265358979323846;

static inline int64_t index_at(const void *idx, int wide, int64_t k)
{
    return wide ? ((const int64_t *)idx)[k] : (int64_t)((const int32_t *)idx)[k];
}

/* Minimum image of one displacement component, d - L rint(d / L) as the
 * reference folds it; for |d| <= L/2 that is d bit for bit (rint(+-0.5) is
 * +-0).  nearbyint rounds half to even like numpy's rint: lattice pairs
 * sit at exactly half a box. */
static inline double min_image(double d, double length, double half)
{
    if (fabs(d) > half)
        d -= length * nearbyint(d / length);
    return d;
}

/* The same fold as two selects, bit for bit while |d| < 1.49 L: rint(d / L)
 * is then the sign of d where |d| > L/2 and zero elsewhere, and L times it
 * is exact (axis_r2 below has the argument). */
static inline double fold_near(double d, double length, double half)
{
    const double up = d > half ? length : 0.0;
    const double down = d < -half ? length : 0.0;
    return d - (up - down);
}

/* Switched LJ energy of one pair inside the cutoff; its dE/dr / r goes to
 * *f.  The switch is taken at t = max(r2, s2) - S(s2) is 1 and S'(s2) is 0,
 * so below the band nothing is selected - and the maximum is read from a
 * table: written as a conditional it compiles to a branch that two fifths
 * of the in-range pairs mispredict. */
static inline double lj_switched(double r2, double inv_r2, double eps, double rmin,
                                 double c2, double s2, double inv_denom, double *f)
{
    const double sr2 = (rmin * rmin) * inv_r2;
    const double sr6 = sr2 * sr2 * sr2;
    const double e_raw = eps * sr6 * (sr6 - 2.0);
    const double f_raw = -12.0 * eps * sr6 * (sr6 - 1.0) * inv_r2;
    const double clamp[2] = {s2, r2};
    const double t = clamp[r2 > s2];
    const double gap = c2 - t;
    const double sw = gap * gap * (c2 + 2.0 * t - 3.0 * s2) * inv_denom;
    const double dsw_dr2 = 6.0 * gap * (s2 - t) * inv_denom;
    *f = f_raw * sw + 2.0 * e_raw * dsw_dr2;
    return e_raw * sw;
}

/* Switched LJ + electrostatics over a pair list with Newton's-third-law
 * scatter.  alpha <= 0 selects the shifted point-charge term, alpha > 0
 * the Ewald real-space term inside ewald_cutoff.  energies[0] is the LJ
 * sum, energies[1] the electrostatic sum; returns the pairs inside the LJ
 * cutoff, or -1 at the first index outside pos (n_atoms rows) or forces
 * (n_rows rows).
 *
 * A list is built at cutoff + skin and tested at the cutoff: a third or
 * more of its pairs fail the distance test, in no learnable order.  So the
 * list is taken NB_CHUNK pairs at a time, in two passes with the scratch
 * on the stack.  Pass 1 checks the four indices of every pair, folds and
 * squares its displacement and appends its place in the chunk to the hit
 * list without a branch.  Pass 2 visits the hits alone, in list order:
 * first dE/dr / r of each (every term is carried in that form, as the
 * reference carries it, so a pair costs one division and one square root
 * and the unit vector is never formed), the mode chosen outside the loop;
 * then the scatter, where the force on row si is summed in registers for
 * as long as si repeats - block_pairs lists row-major, so that is a whole
 * row of a block - and added to the row once per run.  What the registers
 * hold is a partial sum, not a copy of the row, so a list in any order, or
 * one whose sj names the row being summed, comes out right. */
#define NB_CHUNK 256

int64_t nb_pairs(const double *pos, int64_t n_atoms, const double *box,
                 const void *i_idx, const void *j_idx, int idx_wide, int64_t m,
                 const double *eps, const double *rmin, const double *qq,
                 double cutoff, double switch_dist,
                 double alpha, double ewald_cutoff,
                 double *forces, int64_t n_rows,
                 const void *si, const void *sj, int s_wide,
                 double *energies)
{
    const double c2 = cutoff * cutoff;
    const double s2 = switch_dist * switch_dist;
    const double inv_c2 = 1.0 / c2;
    const double inv_denom = 1.0 / ((c2 - s2) * (c2 - s2) * (c2 - s2));
    const double ec2 = ewald_cutoff * ewald_cutoff;
    const int ewald = alpha > 0.0;
    const double reach2 = (ewald && ec2 > c2) ? ec2 : c2;
    const double two_a_rtpi = 2.0 * alpha / sqrt(PI);
    const double bx = box[0], by = box[1], bz = box[2];
    const double hx = 0.5 * bx, hy = 0.5 * by, hz = 0.5 * bz;
    const double wx = 1.49 * bx, wy = 1.49 * by, wz = 1.49 * bz;
    double dx[NB_CHUNK], dy[NB_CHUNK], dz[NB_CHUNK], r2[NB_CHUNK];
    int32_t hit[NB_CHUNK];
    double e_lj_tot = 0.0, e_el_tot = 0.0;
    int64_t n_pairs = 0;
    /* the run of si being summed: its row (nowhere until the first hit)
     * and the sum */
    double nowhere[3] = {0.0, 0.0, 0.0};
    double *f_row = nowhere;
    double ax = 0.0, ay = 0.0, az = 0.0;

    for (int64_t base = 0; base < m; base += NB_CHUNK) {
        const int64_t len = m - base < NB_CHUNK ? m - base : NB_CHUNK;
        int64_t n_hit = 0;
        for (int64_t k = 0; k < len; k++) {
            const int64_t p = base + k;
            const int64_t i = index_at(i_idx, idx_wide, p);
            const int64_t j = index_at(j_idx, idx_wide, p);
            const int64_t a = index_at(si, s_wide, p);
            const int64_t b = index_at(sj, s_wide, p);
            /* unsigned compare: negative indices are out of range too */
            if ((uint64_t)i >= (uint64_t)n_atoms || (uint64_t)j >= (uint64_t)n_atoms
                || (uint64_t)a >= (uint64_t)n_rows || (uint64_t)b >= (uint64_t)n_rows)
                return -1;
            const double *xi = pos + 3 * i;
            const double *xj = pos + 3 * j;
            double x = xj[0] - xi[0], y = xj[1] - xi[1], z = xj[2] - xi[2];
            if (fabs(x) < wx && fabs(y) < wy && fabs(z) < wz) {
                x = fold_near(x, bx, hx);
                y = fold_near(y, by, hy);
                z = fold_near(z, bz, hz);
            } else { /* coordinates left unwrapped: never taken otherwise */
                x = min_image(x, bx, hx);
                y = min_image(y, by, hy);
                z = min_image(z, bz, hz);
            }
            const double d2 = x * x + y * y + z * z;
            dx[k] = x;
            dy[k] = y;
            dz[k] = z;
            r2[k] = d2;
            hit[n_hit] = (int32_t)k;
            n_hit += d2 < reach2;
        }

        /* dE/dr / r of every hit, stored over its squared distance */
        if (ewald) {
            for (int64_t h = 0; h < n_hit; h++) {
                const int64_t k = hit[h];
                const int64_t p = base + k;
                const double d2 = r2[k];
                const double inv_r2 = 1.0 / d2;
                double f = 0.0;
                if (d2 < c2) {
                    n_pairs++;
                    e_lj_tot += lj_switched(d2, inv_r2, eps[p], rmin[p],
                                            c2, s2, inv_denom, &f);
                }
                if (d2 < ec2) {
                    /* e = C qq erfc(a r) / r */
                    const double inv_r = sqrt(inv_r2);
                    const double cqq = COULOMB_CONSTANT * qq[p];
                    const double e_el = cqq * erfc(alpha * (d2 * inv_r)) * inv_r;
                    f -= (e_el + cqq * two_a_rtpi * exp(-(alpha * alpha) * d2)) * inv_r2;
                    e_el_tot += e_el;
                }
                r2[k] = f;
            }
        } else {
            n_pairs += n_hit;
            for (int64_t h = 0; h < n_hit; h++) {
                const int64_t k = hit[h];
                const int64_t p = base + k;
                const double d2 = r2[k];
                const double inv_r2 = 1.0 / d2;
                double f;
                e_lj_tot += lj_switched(d2, inv_r2, eps[p], rmin[p],
                                        c2, s2, inv_denom, &f);
                /* e = (C qq / r)(1 - r^2/c^2)^2 */
                const double shift = 1.0 - d2 * inv_c2;
                const double e0 = COULOMB_CONSTANT * qq[p] * sqrt(inv_r2) * shift;
                f -= e0 * (shift * inv_r2 + 4.0 * inv_c2);
                e_el_tot += e0 * shift;
                r2[k] = f;
            }
        }

        /* force on i = (dE/dr / r) delta given delta = x_j - x_i */
        for (int64_t h = 0; h < n_hit; h++) {
            const int64_t k = hit[h];
            const int64_t p = base + k;
            const double fx = r2[k] * dx[k], fy = r2[k] * dy[k], fz = r2[k] * dz[k];
            double *f_si = forces + 3 * index_at(si, s_wide, p);
            if (f_si != f_row) {
                f_row[0] += ax;
                f_row[1] += ay;
                f_row[2] += az;
                f_row = f_si;
                ax = ay = az = 0.0;
            }
            ax += fx;
            ay += fy;
            az += fz;
            double *f_sj = forces + 3 * index_at(sj, s_wide, p);
            f_sj[0] -= fx;
            f_sj[1] -= fy;
            f_sj[2] -= fz;
        }
    }
    f_row[0] += ax;
    f_row[1] += ay;
    f_row[2] += az;
    energies[0] = e_lj_tot;
    energies[1] = e_el_tot;
    return n_pairs;
}

/* ---- Ewald reciprocal sum with factorised phase factors ----------------
 *
 * k = 2 pi (mx/Lx, my/Ly, mz/Lz), so e^{i k.r} is a product of three
 * per-axis factors e^{i m theta}, theta = 2 pi x / L.  Each atom pays one
 * sin/cos per axis and a complex-multiply recurrence up to the largest
 * |m|; every k-vector is then two complex products of table entries
 * instead of a sin/cos of its own.
 */
#define M_CAP 64 /* largest |m| per axis the tables hold */

typedef struct {
    double c[3][2 * M_CAP + 1];
    double s[3][2 * M_CAP + 1];
} phase_tables;

static void fill_tables(phase_tables *t, const double *x, const double *base,
                        const int *mmax)
{
    for (int d = 0; d < 3; d++) {
        double *c = t->c[d] + M_CAP, *s = t->s[d] + M_CAP;
        const double theta = base[d] * x[d];
        const double c1 = cos(theta), s1 = sin(theta);
        c[0] = 1.0;
        s[0] = 0.0;
        for (int m = 1; m <= mmax[d]; m++) {
            c[m] = c[m - 1] * c1 - s[m - 1] * s1;
            s[m] = s[m - 1] * c1 + c[m - 1] * s1;
            c[-m] = c[m];
            s[-m] = -s[m];
        }
    }
}

static inline void phase(const phase_tables *t, const int32_t *m,
                         double *c, double *s)
{
    const double cx = t->c[0][m[0] + M_CAP], sx = t->s[0][m[0] + M_CAP];
    const double cy = t->c[1][m[1] + M_CAP], sy = t->s[1][m[1] + M_CAP];
    const double cz = t->c[2][m[2] + M_CAP], sz = t->s[2][m[2] + M_CAP];
    const double cxy = cx * cy - sx * sy, sxy = sx * cy + cx * sy;
    *c = cxy * cz - sxy * sz;
    *s = sxy * cz + cxy * sz;
}

/* Reciprocal sum over the nk vectors kvecs = 2 pi mvecs / box (any
 * contiguous shard of the table).  work holds 2 nk doubles.  Returns 0
 * with the energy stored, or 1 having touched nothing when some |m|
 * exceeds M_CAP (the caller evaluates the direct sum instead). */
int ewald_recip(const double *pos, const double *q, int64_t n,
                const double *kvecs, const double *ak, const int32_t *mvecs,
                int64_t nk, double pref, double *forces, double *work,
                double *energy)
{
    double *s_re = work, *s_im = work + nk;
    double base[3] = {0.0, 0.0, 0.0}; /* 2 pi / L per axis */
    int mmax[3] = {0, 0, 0};
    phase_tables t;

    for (int64_t k = 0; k < nk; k++) {
        for (int d = 0; d < 3; d++) {
            const int mm = mvecs[3 * k + d];
            if (abs(mm) > mmax[d]) {
                mmax[d] = abs(mm);
                base[d] = kvecs[3 * k + d] / mm;
            }
        }
        s_re[k] = 0.0;
        s_im[k] = 0.0;
    }
    if (mmax[0] > M_CAP || mmax[1] > M_CAP || mmax[2] > M_CAP)
        return 1;

    /* structure factors S(k) = sum_a q_a e^{i k.r_a} */
    for (int64_t a = 0; a < n; a++) {
        double c, s;
        fill_tables(&t, pos + 3 * a, base, mmax);
        for (int64_t k = 0; k < nk; k++) {
            phase(&t, mvecs + 3 * k, &c, &s);
            s_re[k] += q[a] * c;
            s_im[k] += q[a] * s;
        }
    }
    double e = 0.0;
    for (int64_t k = 0; k < nk; k++) {
        e += ak[k] * (s_re[k] * s_re[k] + s_im[k] * s_im[k]);
        s_re[k] *= ak[k];
        s_im[k] *= ak[k];
    }
    *energy = pref * e;

    /* F_a = 2 pref q_a sum_k ak k [ sin(k.r_a) S_re - cos(k.r_a) S_im ] */
    for (int64_t a = 0; a < n; a++) {
        double c, s, fx = 0.0, fy = 0.0, fz = 0.0;
        fill_tables(&t, pos + 3 * a, base, mmax);
        for (int64_t k = 0; k < nk; k++) {
            phase(&t, mvecs + 3 * k, &c, &s);
            const double coeff = s * s_re[k] - c * s_im[k];
            fx += coeff * kvecs[3 * k];
            fy += coeff * kvecs[3 * k + 1];
            fz += coeff * kvecs[3 * k + 2];
        }
        const double scale = 2.0 * pref * q[a];
        forces[3 * a] += scale * fx;
        forces[3 * a + 1] += scale * fy;
        forces[3 * a + 2] += scale * fz;
    }
    return 0;
}

/* ---- pairs of one dense cell block: counted, or listed ------------------
 *
 * The block is the stripe part::n_parts of the rows of cell a against all
 * of cell b, or (atoms_b NULL) the upper triangle of cell a against
 * itself.  A row is three passes: squared distances of the row atom to
 * every column, one axis at a time over contiguous column coordinates;
 * the in-range columns compacted without a branch; then, in list mode, the
 * exclusion lookup, the Lorentz-Berthelot combination and the stores for
 * those columns only.  The arithmetic is the reference's bit for bit - the
 * fold d - L rint(d / L) per component, the sum (dx^2 + dy^2) + dz^2 - so
 * the lists are the reference's arrays exactly.
 */
#define BLOCK_NO_FIT (-1)
#define BLOCK_BAD_INDEX (-2)
#define BLOCK_WORK 8 /* doubles of scratch per atom of cell b */

/* r2[c] += fold(x - xb[c])^2 for lo <= c < hi; xb lies in [bmin, bmax].
 * The bounds pick the cheapest fold that is still d - L rint(d / L):
 * none when every |d| <= L/2 (rint of at most a half is zero); otherwise,
 * while every |d| < 1.49 L, rint(d / L) is the sign of d where |d| > L/2
 * (the quotient then rounds to more than a half, and to less than 1.5)
 * and L times it is exact, so the fold is two selects; else the general
 * form.  Adding to a zeroed r2 leaves the sum (dx^2 + dy^2) + dz^2. */
static void axis_r2(double *r2, const double *xb, int64_t lo, int64_t hi,
                    double x, double length, double bmin, double bmax)
{
    const double half = 0.5 * length;
    const double dlo = x - bmax, dhi = x - bmin;
    if (dlo >= -half && dhi <= half) {
        for (int64_t c = lo; c < hi; c++) {
            const double d = x - xb[c];
            r2[c] += d * d;
        }
    } else if (dlo > -1.49 * length && dhi < 1.49 * length) {
        for (int64_t c = lo; c < hi; c++) {
            const double d = fold_near(x - xb[c], length, half);
            r2[c] += d * d;
        }
    } else {
        for (int64_t c = lo; c < hi; c++) {
            const double d = min_image(x - xb[c], length, half);
            r2[c] += d * d;
        }
    }
}

/* Count mode (excl_ptr NULL): returns the pairs of the block within r and
 * writes nothing.  List mode: pairs within r and not in the per-atom
 * exclusion table (excl_idx[excl_ptr[i] .. excl_ptr[i+1]) ascending,
 * n_excl entries) go to the seven arrays of `capacity` entries from
 * `offset` on, in row-major order; returns how many, or BLOCK_NO_FIT
 * having written nothing at or beyond `capacity`.  BLOCK_BAD_INDEX at the
 * first atom outside pos, type outside the LJ tables or table row outside
 * excl_idx.  work holds BLOCK_WORK * nb doubles. */
int64_t block_pairs(const double *pos, int64_t n_atoms, const double *box,
                    const int64_t *atoms_a, int64_t na,
                    const int64_t *atoms_b, int64_t nb,
                    int64_t part, int64_t n_parts, double r,
                    const int64_t *excl_ptr, const int64_t *excl_idx, int64_t n_excl,
                    const int64_t *type_idx, const double *eps_t,
                    const double *rmin_t, int64_t n_types, const double *charges,
                    int32_t *i_g, int32_t *j_g, int64_t *si, int64_t *sj,
                    double *eps, double *rmin, double *qq,
                    int64_t offset, int64_t capacity, double *work)
{
    const int self = atoms_b == NULL;
    const int listing = excl_ptr != NULL;
    const double r2_max = r * r;
    if (self) {
        atoms_b = atoms_a;
        nb = na;
    }
    double *xb[3] = {work, work + nb, work + 2 * nb};
    double *r2 = work + 3 * nb;
    double *eps_b = work + 4 * nb, *rmin_b = work + 5 * nb, *q_b = work + 6 * nb;
    int64_t *hit = (int64_t *)(work + 7 * nb);
    double bmin[3], bmax[3];

    /* cell b gathered once, component-major: its indices are checked here */
    for (int64_t c = 0; c < nb; c++) {
        const int64_t j = atoms_b[c];
        if ((uint64_t)j >= (uint64_t)n_atoms)
            return BLOCK_BAD_INDEX;
        for (int k = 0; k < 3; k++) {
            const double x = pos[3 * j + k];
            xb[k][c] = x;
            if (c == 0 || x < bmin[k])
                bmin[k] = x;
            if (c == 0 || x > bmax[k])
                bmax[k] = x;
        }
        if (listing) {
            const int64_t tj = type_idx[j];
            if ((uint64_t)tj >= (uint64_t)n_types)
                return BLOCK_BAD_INDEX;
            eps_b[c] = eps_t[tj];
            rmin_b[c] = rmin_t[tj];
            q_b[c] = charges[j];
        }
    }

    const int64_t ns = (na - part + n_parts - 1) / n_parts; /* stripe rows */
    int64_t n = 0;
    for (int64_t s = 0; s < ns && nb > 0; s++) {
        const int64_t row = part + s * n_parts;
        const int64_t i = atoms_a[row];
        if ((uint64_t)i >= (uint64_t)n_atoms)
            return BLOCK_BAD_INDEX;
        const int64_t lo = self ? row + 1 : 0;
        for (int64_t c = lo; c < nb; c++)
            r2[c] = 0.0;
        for (int k = 0; k < 3; k++)
            axis_r2(r2, xb[k], lo, nb, pos[3 * i + k], box[k], bmin[k], bmax[k]);
        int64_t n_hit = 0;
        for (int64_t c = lo; c < nb; c++) {
            hit[n_hit] = c;
            n_hit += r2[c] < r2_max;
        }
        if (!listing) {
            n += n_hit;
            continue;
        }
        const int64_t ti = type_idx[i];
        const int64_t e_lo = excl_ptr[i], e_hi = excl_ptr[i + 1];
        if ((uint64_t)ti >= (uint64_t)n_types
            || e_lo < 0 || e_lo > e_hi || e_hi > n_excl)
            return BLOCK_BAD_INDEX;
        const double eps_i = eps_t[ti], rmin_i = rmin_t[ti], q_i = charges[i];
        for (int64_t h = 0; h < n_hit; h++) {
            const int64_t c = hit[h];
            const int64_t j = atoms_b[c];
            int64_t e = e_lo;
            while (e < e_hi && excl_idx[e] < j)
                e++;
            if (e < e_hi && excl_idx[e] == j)
                continue;
            const int64_t at = offset + n;
            if (at >= capacity)
                return BLOCK_NO_FIT;
            i_g[at] = (int32_t)i;
            j_g[at] = (int32_t)j;
            si[at] = self ? row : s;
            sj[at] = self ? c : c + ns;
            eps[at] = sqrt(eps_i * eps_b[c]);
            rmin[at] = rmin_i + rmin_b[c];
            qq[at] = q_i * q_b[c];
            n++;
        }
    }
    return n;
}
