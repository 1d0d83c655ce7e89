/* Compiled kernels of the "c" backend: the two pair kernels (nb_pairs over
 * an explicit pair array, nb_rows over the row lists of a batch of cell
 * tasks), the classic Ewald reciprocal sum, the two halves of smooth PME
 * (pme_spread, pme_gather), the bonded terms and the cell-block kernel that
 * counts pairs and lists them as rows.  Built on first use and
 * loaded through ctypes by repro/backend/c_backend.py; the contracts are
 * those of repro/backend/base.py and the registry's parity self-check holds
 * the arithmetic to the numpy reference at 1e-9 - the lists, whose order is
 * the pair kernels' accumulation order, to array identity.
 *
 * The lists: a cell task's pairs are a row list over its force block -
 * cols, one int32 a listed pair naming the partner's block row, and
 * row_ptr, each block row's range in cols (block_pairs below writes them).
 * Which atom a block row is (rows), its type and its charge are per-row
 * data; the pair's parameters are read from type tables.  nb_rows gathers a
 * block's coordinates once and works on them in place.
 *
 * Rules this file keeps:
 *   - re-entrant: no mutable static or global state, no allocation (scratch
 *     comes from the caller or, fixed-size and under 16 KB a frame, from the
 *     stack; the Ewald table and the PME grid are the caller's), because ctypes
 *     drops the GIL for the call and the service steps several jobs from
 *     threads;
 *   - one reduction order, fixed in the source: a pair kernel takes a list
 *     a fixed number of pairs at a time, sums the in-range pairs in list
 *     order and keeps one partial sum per run of equal force rows - one
 *     body (chunk_pass2) for both kernels, so the same pairs in the same
 *     order give the same bits through either; the other loops are serial
 *     in list order.  Compiled with -ffp-contract=off - no fused
 *     multiply-adds - and no target flags, so a result depends on the
 *     inputs only, not on the host that built the object, the worker count
 *     or the thread that ran it.  Three kernels (nb_pairs, nb_rows,
 *     block_pairs: KERNEL_BUILDS below) are each one body built twice, a
 *     portable build and an AVX-512F one, and the CPU that loads the object
 *     picks one; the AVX-512F build's vector lanes do the portable build's
 *     IEEE operations in its order, its compactions keep the hits in list
 *     order, and no sum is taken across lanes, so both give the same bits;
 *   - arrays are C-contiguous float64; index arrays are int32 or int64 as
 *     the caller stores them (a flag says which), so no call converts;
 *   - the caller checks array lengths, the kernels check every index they
 *     are about to follow (a corrupt list is an error, not a wild write).
 *     What is checked where: nb_pairs, all four indices of a pair in pass
 *     1; nb_rows, a task's extent in its arrays and in scratch first, then
 *     every rows entry, type and row_ptr step while it gathers the block,
 *     then every column in pass 1 - a chunk's before any of it is
 *     evaluated; block_pairs, cell b while it gathers it and each row atom
 *     and table row as it reaches them; pme_spread and pme_gather follow no
 *     index they were given - a grid point is a folded coordinate, in range
 *     by construction - and refuse an order or grid they cannot serve
 *     before they write.
 */
#define _POSIX_C_SOURCE 200809L /* clock_gettime */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

static const double COULOMB_CONSTANT = 332.0636; /* repro.md.constants */
static const double PI = 3.14159265358979323846;

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* Three kernels are built for more than the baseline target - the pair
 * kernels nb_pairs and nb_rows, and block_pairs: on x86-64 GCC with glibc
 * each one body (name_body, its first argument `lanes` a constant) is built
 * twice, both at -O3 - a portable build and an AVX-512F one - and the
 * exported name is an ifunc that the loader resolves once, by the CPU the
 * object runs on, to one of them (KERNEL_BUILDS).  In both builds the loops
 * over a chunk's hits (chunk_pass2) and over a block's columns (axis_r2)
 * run in vector lanes where the target has them; the AVX-512F build of
 * nb_rows and of block_pairs also compacts its hits in lanes (row_pass1,
 * row_hits: a compare gives the mask of the hits, vcompress packs them to
 * the front in list order), which the vectoriser cannot do for a store at
 * a data-dependent index.  A lane does the portable body's IEEE operations
 * in its order (no contraction under -ffp-contract=off, no errno branch
 * under -fno-math-errno: a square root is the instruction either way), and
 * every sum is taken in list order outside the lanes, so forces, energies
 * and lists are the same bits whichever build runs.  Elsewhere (clang,
 * other targets, a libc without ifuncs) the three are their portable
 * bodies alone, plain functions at the compiler's -O2. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
#define KERNEL_OPTIMIZE __attribute__((optimize("O3")))
#define KERNEL_AVX512F 1 /* the AVX-512F builds, and the dispatch */
#else
#define KERNEL_AVX512F 0
#define KERNEL_OPTIMIZE
#endif
#define UNPAREN(...) __VA_ARGS__

#if KERNEL_AVX512F
#include <immintrin.h>

/* The AVX-512F build's target; `flatten` inlines the lane helpers below
 * into it, which always_inline cannot (the body they are called from is
 * built for the baseline too). */
#define LANES __attribute__((target("avx512f")))

/* The resolvers' one test, also run after load (kernel_build): they run
 * before the object's constructors, so they initialise the CPU model
 * first. */
static int avx512f_cpu(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}

/* Kernel `name`: name##_body built portable and for AVX-512F, both static,
 * and `name` itself an ifunc resolved to one of them at load.  params is
 * the kernel's parenthesised parameter list, args their names. */
#define KERNEL_BUILDS(name, params, args)                                    \
    static KERNEL_OPTIMIZE int64_t name##_portable params                    \
    {                                                                        \
        return name##_body(0, UNPAREN args);                                 \
    }                                                                        \
    static KERNEL_OPTIMIZE LANES __attribute__((flatten))                    \
    int64_t name##_avx512f params                                            \
    {                                                                        \
        return name##_body(1, UNPAREN args);                                 \
    }                                                                        \
    static __typeof__(&name##_portable) name##_resolve(void)                 \
    {                                                                        \
        return avx512f_cpu() ? name##_avx512f : name##_portable;             \
    }                                                                        \
    __typeof__(name##_portable) name __attribute__((ifunc(#name "_resolve")));

/* The build the loader resolved the three to on this CPU. */
const char *kernel_build(void)
{
    return avx512f_cpu() ? "avx512f" : "portable";
}

/* The first n of eight lanes. */
static inline LANES __mmask8 lanes_first(int64_t n)
{
    return (__mmask8)(n >= 8 ? 0xff : (1u << n) - 1);
}

/* The lanes of v that hit selects, packed in lane order (vcompress) and
 * stored from at: as many values as hits, nothing beyond. */
static inline LANES void pack_pd(double *at, __mmask8 hit, __m512d v)
{
    const __mmask8 front = lanes_first(__builtin_popcount(hit));
    _mm512_mask_storeu_pd(at, front, _mm512_maskz_compress_pd(hit, v));
}

static inline LANES void pack_epi64(int64_t *at, __mmask8 hit, __m512i v)
{
    const __mmask8 front = lanes_first(__builtin_popcount(hit));
    _mm512_mask_storeu_epi64(at, front, _mm512_maskz_compress_epi64(hit, v));
}

/* fold_near and min_image (below) in lanes, operation for operation: the
 * selects are blends; nearbyint is a roundscale in the current rounding
 * mode with the inexact exception suppressed. */
static inline LANES __m512d fold_near_lanes(__m512d d, double length, double half)
{
    const __m512d zero = _mm512_setzero_pd(), len = _mm512_set1_pd(length);
    const __mmask8 above = _mm512_cmp_pd_mask(d, _mm512_set1_pd(half), _CMP_GT_OQ);
    const __mmask8 below = _mm512_cmp_pd_mask(d, _mm512_set1_pd(-half), _CMP_LT_OQ);
    const __m512d up = _mm512_mask_blend_pd(above, zero, len);
    const __m512d down = _mm512_mask_blend_pd(below, zero, len);
    return _mm512_sub_pd(d, _mm512_sub_pd(up, down));
}

static inline LANES __m512d min_image_lanes(__m512d d, double length, double half)
{
    const __m512d len = _mm512_set1_pd(length);
    const __mmask8 far = _mm512_cmp_pd_mask(_mm512_abs_pd(d), _mm512_set1_pd(half),
                                            _CMP_GT_OQ);
    const int rint = _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC;
    const __m512d n = _mm512_roundscale_pd(_mm512_div_pd(d, len), rint);
    return _mm512_mask_sub_pd(d, far, d, _mm512_mul_pd(len, n));
}
#else
#define KERNEL_BUILDS(name, params, args)                                    \
    KERNEL_OPTIMIZE int64_t name params                                      \
    {                                                                        \
        return name##_body(0, UNPAREN args);                                 \
    }

/* No dispatch: the portable bodies alone. */
const char *kernel_build(void)
{
    return "none";
}
#endif

static inline int64_t index_at(const void *idx, int wide, int64_t k)
{
    return wide ? ((const int64_t *)idx)[k] : (int64_t)((const int32_t *)idx)[k];
}

/* Minimum image of one displacement component, d - L rint(d / L) as the
 * reference folds it; for |d| <= L/2 that is d bit for bit (rint(+-0.5) is
 * +-0).  nearbyint rounds half to even like numpy's rint: lattice pairs
 * sit at exactly half a box. */
ALWAYS_INLINE double min_image(double d, double length, double half)
{
    if (fabs(d) > half)
        d -= length * nearbyint(d / length);
    return d;
}

/* The same fold as two selects, bit for bit while |d| < 1.49 L: rint(d / L)
 * is then the sign of d where |d| > L/2 and zero elsewhere, and L times it
 * is exact (axis_r2 below has the argument). */
ALWAYS_INLINE double fold_near(double d, double length, double half)
{
    const double up = d > half ? length : 0.0;
    const double down = d < -half ? length : 0.0;
    return d - (up - down);
}

/* Switched LJ energy of one pair inside the cutoff; its dE/dr / r goes to
 * *f.  The switch is taken at t = max(r2, s2) - S(s2) is 1 and S'(s2) is 0,
 * so below the band nothing is selected - and the maximum is a select (a
 * maxsd, or a blend in vector lanes): written as a branch, two fifths of the
 * in-range pairs would mispredict it. */
ALWAYS_INLINE double lj_switched(double r2, double inv_r2, double eps, double rmin,
                                 double c2, double s2, double inv_denom, double *f)
{
    const double sr2 = (rmin * rmin) * inv_r2;
    const double sr6 = sr2 * sr2 * sr2;
    const double e_raw = eps * sr6 * (sr6 - 2.0);
    const double f_raw = -12.0 * eps * sr6 * (sr6 - 1.0) * inv_r2;
    const double t = r2 > s2 ? r2 : s2;
    const double gap = c2 - t;
    const double sw = gap * gap * (c2 + 2.0 * t - 3.0 * s2) * inv_denom;
    const double dsw_dr2 = 6.0 * gap * (s2 - t) * inv_denom;
    *f = f_raw * sw + 2.0 * e_raw * dsw_dr2;
    return e_raw * sw;
}

/* ---- the Ewald real-space term, read from a table in r^2 -----------------
 *
 * repro/backend/ewald_table.py builds the table and has the scheme: every
 * octave of r^2 from 1 A^2 up is cut into 2^TAB_OCTAVE_BITS equal
 * intervals, so the top bits of the double are the interval number and the
 * same bits with the rest of the mantissa cleared its lower node.  An
 * interval is eight doubles, one 64-byte line: the cubic-Hermite
 * coefficients, in powers of r^2 - node, of the energy erfc(a r) / r and of
 * the force factor (erfc(a r) / r + 2a/sqrt(pi) exp(-a^2 r^2)) / r^2.  The
 * Horner order below is the reference's, so both backends get the same
 * bits from one table, and no libm function is called for a pair at or
 * beyond the first node - closer than that (1 A: no liquid reaches it) the
 * expressions themselves are evaluated (ewald_close).
 *
 * The interval number is monotonic in r^2, so a table that reaches the
 * interval of ewald_cutoff^2 - pair_setup refuses one that does not - holds
 * the interval of every pair inside it: the lookup needs no check of its
 * own. */
#define TAB_OCTAVE_BITS 9 /* ewald_table.INTERVALS_PER_OCTAVE = 512 */
#define TAB_SHIFT (52 - TAB_OCTAVE_BITS)
#define TAB_FIRST ((int64_t)0x3FF << TAB_OCTAVE_BITS) /* top bits of 1.0 */

ALWAYS_INLINE int64_t tab_interval(double r2, double *node)
{
    uint64_t bits;
    memcpy(&bits, &r2, sizeof bits);
    const int64_t at = (int64_t)(bits >> TAB_SHIFT) - TAB_FIRST;
    bits &= ~(((uint64_t)1 << TAB_SHIFT) - 1);
    memcpy(node, &bits, sizeof bits);
    return at;
}

/* erfc(a r) / r from interval `line` of the table at u = r2 - node; the
 * force factor goes to *g (dE/dr / r = -g).  Indexed from tab itself, not
 * from a pointer to the line: that is the form the vectoriser gathers. */
ALWAYS_INLINE double tab_eval(const double *tab, int64_t line, double u, double *g)
{
    const int64_t o = 8 * line;
    *g = tab[o + 4] + u * (tab[o + 5] + u * (tab[o + 6] + u * tab[o + 7]));
    return tab[o] + u * (tab[o + 1] + u * (tab[o + 2] + u * tab[o + 3]));
}

/* The same below the first node, from the expressions. */
static double ewald_close(double alpha, double two_a_rtpi, double r2, double *g)
{
    const double inv_r2 = 1.0 / r2;
    const double inv_r = sqrt(inv_r2);
    const double e = erfc(alpha * (r2 * inv_r)) * inv_r;
    *g = (e + two_a_rtpi * exp(-(alpha * alpha) * r2)) * inv_r2;
    return e;
}

/* ---- the pair kernels: nb_pairs over an explicit pair array, nb_rows over
 * the row lists of a batch of cell tasks -----------------------------------
 *
 * A list is built at cutoff + skin and tested at the cutoff: a third or
 * more of its pairs fail the distance test, in no learnable order.  So a
 * list is taken NB_CHUNK pairs at a time, in two passes with the scratch on
 * the stack.  Pass 1 - each kernel's own, it is where they read their list
 * - checks every index of the chunk, all of them before any pair of it is
 * evaluated, folds and squares each displacement and writes it, the pair's
 * parameters (eps, rmin, q_i q_j) and its two force rows at the front of
 * the chunk scratch, advancing past them only for a pair within reach: the
 * hits end up compacted, in list order, without a branch.  nb_rows' AVX-512F
 * build takes its pass 1 eight listed pairs at a time instead (row_pass1):
 * it masks the hits, reads their parameters only and packs them to the
 * front with vcompress - the same hits, in the same order, with the same
 * bits.  Pass 2 (chunk_pass2, one body for both kernels) first takes every
 * hit in one loop without control flow - dE/dr / r and both energies of
 * each, the mode chosen outside the loop (every term is carried in that
 * form, as the reference carries it, so a pair costs one division and one
 * square root and the unit vector is never formed).  Everything that loop
 * reads lies side by side in the scratch, so it runs in vector lanes (the
 * AVX-512F builds, above); a lane does the scalar body's IEEE operations in
 * its order.  Then, hit by hit in list order, the energies are summed and
 * the force on row si is summed in registers for as long as si repeats - a
 * whole row of a block - and added to the row once per run.  What the
 * registers hold is a partial sum, not a copy of the row, so a list in any
 * order, or one whose sj names the row being summed (a self block's column
 * is a row flushed later), comes out right.  Chunk edges fall where they
 * fall - inside a row or on its end - and move no bit: the sums and the run
 * carry across them. */
#define NB_CHUNK 128

/* One chunk's scratch, per hit: the folded displacement, the squared
 * distance (then dE/dr / r), the parameters (eps and rmin, then the LJ and
 * the electrostatic energy) and the force rows of the pair. */
typedef struct {
    double dx[NB_CHUNK], dy[NB_CHUNK], dz[NB_CHUNK], r2[NB_CHUNK];
    double eps[NB_CHUNK], rmin[NB_CHUNK], qq[NB_CHUNK];
    int64_t si[NB_CHUNK], sj[NB_CHUNK];
} __attribute__((aligned(64))) chunk_scratch;

typedef struct {
    double c2, s2, inv_c2, inv_denom, ec2, reach2, alpha, two_a_rtpi;
    const double *tab;
    int ewald;
} pair_consts;

/* The constants of a call.  Returns 0, or 1 in Ewald mode when the table's
 * n_tab intervals stop short of the one that holds ewald_cutoff^2. */
static int pair_setup(pair_consts *c, double cutoff, double switch_dist,
                      double alpha, double ewald_cutoff,
                      const double *tab, int64_t n_tab)
{
    pair_consts k;
    double node;
    k.c2 = cutoff * cutoff;
    k.s2 = switch_dist * switch_dist;
    k.inv_c2 = 1.0 / k.c2;
    k.inv_denom = 1.0 / ((k.c2 - k.s2) * (k.c2 - k.s2) * (k.c2 - k.s2));
    k.ec2 = ewald_cutoff * ewald_cutoff;
    k.ewald = alpha > 0.0;
    k.reach2 = (k.ewald && k.ec2 > k.c2) ? k.ec2 : k.c2;
    k.alpha = alpha;
    k.two_a_rtpi = 2.0 * alpha / sqrt(PI);
    k.tab = tab;
    *c = k;
    return k.ewald && (tab == NULL || tab_interval(k.ec2, &node) >= n_tab);
}

/* What a call (nb_pairs) or a task (nb_rows) sums: the energies, the pairs
 * inside the LJ cutoff, and the run of equal force rows being summed - its
 * row (nowhere until the first hit) and the partial sum. */
typedef struct {
    double e_lj, e_el;
    int64_t n_pairs;
    double *f_row;
    double ax, ay, az;
    double nowhere[3];
} pair_sums;

ALWAYS_INLINE void sums_open(pair_sums *acc)
{
    acc->e_lj = acc->e_el = 0.0;
    acc->n_pairs = 0;
    acc->ax = acc->ay = acc->az = 0.0;
    acc->nowhere[0] = acc->nowhere[1] = acc->nowhere[2] = 0.0;
    acc->f_row = acc->nowhere;
}

ALWAYS_INLINE void sums_close(pair_sums *acc)
{
    acc->f_row[0] += acc->ax;
    acc->f_row[1] += acc->ay;
    acc->f_row[2] += acc->az;
}

/* a where c holds, else b: a mask over the bits.  A conditional would be
 * compiled to a branch with a's operands moved under it, and a loop with
 * branches - or with loads under a mask - stays out of the vector lanes. */
ALWAYS_INLINE double pick(int c, double a, double b)
{
    uint64_t ua, ub;
    const uint64_t mask = -(uint64_t)(c != 0);
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    ua = (ua & mask) | (ub & ~mask);
    memcpy(&a, &ua, sizeof a);
    return a;
}

/* Pass 2 over the n_hit hits at the front of a chunk's scratch. */
ALWAYS_INLINE void chunk_pass2(const pair_consts *c, chunk_scratch *ch, int64_t n_hit,
                               double *forces, pair_sums *acc)
{
    const double c2 = c->c2, s2 = c->s2, inv_c2 = c->inv_c2;
    const double inv_denom = c->inv_denom;
    double *r2 = ch->r2, *eps = ch->eps, *rmin = ch->rmin;
    double *e_lj = ch->eps, *e_el = ch->rmin; /* read, then written, hit by hit */
    const double *qq = ch->qq;

    /* dE/dr / r of every hit, stored over its squared distance, and its
     * two energies over its parameters; a term out of its own reach is 0
     * (0 - x is -x, and the sums, which start at +0, cannot be -0 for a +0
     * to change) */
    if (c->ewald) {
        const double ec2 = c->ec2;
        const double *tab = c->tab;
        int64_t n_lj = 0;
        int close = 0;
        for (int64_t h = 0; h < n_hit; h++) {
            const double d2 = r2[h];
            const int in_lj = d2 < c2, in_el = d2 < ec2;
            double f_lj, node, g;
            const double e = lj_switched(d2, 1.0 / d2, eps[h], rmin[h], c2, s2,
                                         inv_denom, &f_lj);
            /* e = C qq erfc(a r) / r; a hit out of its reach, or below the
             * first node, reads line 0 (ewald_close serves the latter) */
            const int64_t at = tab_interval(d2, &node);
            const int64_t line = at & -(int64_t)(in_el & (at >= 0));
            const double cqq = COULOMB_CONSTANT * qq[h];
            const double e_tab = tab_eval(tab, line, d2 - node, &g);
            const double f = pick(in_lj, f_lj, 0.0);
            n_lj += in_lj;
            close |= in_el & (at < 0);
            e_lj[h] = pick(in_lj, e, 0.0);
            e_el[h] = pick(in_el, cqq * e_tab, 0.0);
            r2[h] = pick(in_el & (at >= 0), f - cqq * g, f);
        }
        acc->n_pairs += n_lj;
        /* within 1 A - no liquid - the expressions, hit by hit, and the
         * force that loop left without its electrostatic part; d2 as pass
         * 1 formed it, from the same folded components */
        for (int64_t h = 0; close && h < n_hit; h++) {
            const double x = ch->dx[h], y = ch->dy[h], z = ch->dz[h];
            const double d2 = x * x + y * y + z * z;
            double node, g;
            if (!(d2 < ec2) || tab_interval(d2, &node) >= 0)
                continue;
            const double cqq = COULOMB_CONSTANT * qq[h];
            e_el[h] = cqq * ewald_close(c->alpha, c->two_a_rtpi, d2, &g);
            r2[h] = r2[h] - cqq * g;
        }
    } else {
        for (int64_t h = 0; h < n_hit; h++) {
            const double d2 = r2[h];
            const double inv_r2 = 1.0 / d2;
            double f;
            e_lj[h] = lj_switched(d2, inv_r2, eps[h], rmin[h], c2, s2, inv_denom, &f);
            /* e = (C qq / r)(1 - r^2/c^2)^2 */
            const double shift = 1.0 - d2 * inv_c2;
            const double e0 = COULOMB_CONSTANT * qq[h] * sqrt(inv_r2) * shift;
            r2[h] = f - e0 * (shift * inv_r2 + 4.0 * inv_c2);
            e_el[h] = e0 * shift;
        }
        acc->n_pairs += n_hit;
    }

    /* the sums, and force on i = (dE/dr / r) delta given delta = x_j - x_i */
    double e_lj_tot = acc->e_lj, e_el_tot = acc->e_el;
    double *f_row = acc->f_row;
    double ax = acc->ax, ay = acc->ay, az = acc->az;
    for (int64_t h = 0; h < n_hit; h++) {
        e_lj_tot += e_lj[h];
        e_el_tot += e_el[h];
        const double fx = r2[h] * ch->dx[h], fy = r2[h] * ch->dy[h];
        const double fz = r2[h] * ch->dz[h];
        double *f_si = forces + 3 * ch->si[h];
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
        double *f_sj = forces + 3 * ch->sj[h];
        f_sj[0] -= fx;
        f_sj[1] -= fy;
        f_sj[2] -= fz;
    }
    acc->e_lj = e_lj_tot;
    acc->e_el = e_el_tot;
    acc->f_row = f_row;
    acc->ax = ax;
    acc->ay = ay;
    acc->az = az;
}

/* Switched LJ + electrostatics over an explicit pair array with
 * Newton's-third-law scatter - the kernel of every list that is not a cell
 * task's (the 1-4 pass, the oracle's global list).  alpha <= 0 selects the
 * shifted point-charge term, alpha > 0 the Ewald real-space term inside
 * ewald_cutoff, read from tab (n_tab intervals, ignored in cutoff mode).
 * energies[0] is the LJ sum, energies[1] the electrostatic sum; returns the
 * pairs inside the LJ cutoff, -1 at the first index outside pos (n_atoms
 * rows) or forces (n_rows rows), or -2 having touched nothing when the
 * table stops short of ewald_cutoff.  Pass 1 checks all four indices of
 * every pair - a chunk's before any of it is evaluated - and folds with the
 * select form, the general one behind a branch that wrapped input never
 * takes. */
ALWAYS_INLINE int64_t nb_pairs_body(const int lanes, const double *pos, int64_t n_atoms,
                                    const double *box, const void *i_idx,
                                    const void *j_idx, int idx_wide, int64_t m,
                                    const double *eps, const double *rmin,
                                    const double *qq, double cutoff, double switch_dist,
                                    double alpha, double ewald_cutoff,
                                    const double *tab, int64_t n_tab,
                                    double *forces, int64_t n_rows,
                                    const void *si, const void *sj, int s_wide,
                                    double *energies)
{
    (void)lanes; /* its pass 1 compacts pair by pair in either build */
    pair_consts c;
    if (pair_setup(&c, cutoff, switch_dist, alpha, ewald_cutoff, tab, n_tab))
        return -2;
    const double reach2 = c.reach2;
    const double bx = box[0], by = box[1], bz = box[2];
    const double hx = 0.5 * bx, hy = 0.5 * by, hz = 0.5 * bz;
    const double wx = 1.49 * bx, wy = 1.49 * by, wz = 1.49 * bz;
    chunk_scratch ch;
    pair_sums acc;

    sums_open(&acc);
    for (int64_t base = 0; base < m; base += NB_CHUNK) {
        const int64_t end = m - base < NB_CHUNK ? m : base + NB_CHUNK;
        int64_t n_hit = 0;
        for (int64_t p = base; p < end; p++) {
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
            ch.dx[n_hit] = x;
            ch.dy[n_hit] = y;
            ch.dz[n_hit] = z;
            ch.r2[n_hit] = d2;
            ch.eps[n_hit] = eps[p];
            ch.rmin[n_hit] = rmin[p];
            ch.qq[n_hit] = qq[p];
            ch.si[n_hit] = a;
            ch.sj[n_hit] = b;
            n_hit += d2 < reach2;
        }
        chunk_pass2(&c, &ch, n_hit, forces, &acc);
    }
    sums_close(&acc);
    energies[0] = acc.e_lj;
    energies[1] = acc.e_el;
    return acc.n_pairs;
}

KERNEL_BUILDS(nb_pairs,
              (const double *pos, int64_t n_atoms, const double *box,
               const void *i_idx, const void *j_idx, int idx_wide, int64_t m,
               const double *eps, const double *rmin, const double *qq,
               double cutoff, double switch_dist, double alpha, double ewald_cutoff,
               const double *tab, int64_t n_tab, double *forces, int64_t n_rows,
               const void *si, const void *sj, int s_wide, double *energies),
              (pos, n_atoms, box, i_idx, j_idx, idx_wide, m, eps, rmin, qq, cutoff,
               switch_dist, alpha, ewald_cutoff, tab, n_tab, forces, n_rows, si, sj,
               s_wide, energies))

/* Pass 1 over places k .. stop of a chunk that starts at cols, all of
 * block row r: each column's displacement from the row atom, folded - the
 * select form when the task's bounding box allows it (`near`, a constant
 * at each call site), else the general one - and squared, the parameters
 * read from the type tables by (type[r], type[col]) and q[r] * q[col],
 * written at hit n_hit.  The columns have been checked.  Returns the new
 * hit count.  The portable body writes every column at n_hit and advances
 * past the hits only; the AVX-512F build takes eight columns at a time,
 * reads the parameters of its hits only and compresses the hits to n_hit
 * in list order (row_pass1_lanes). */
#if KERNEL_AVX512F
static inline LANES int64_t row_pass1_lanes(const int near, const int32_t *cols,
                                            int64_t k, int64_t stop, int64_t r,
                                            const double *xs, const double *ys,
                                            const double *zs, const double *q,
                                            const int64_t *type, const double *eps_tab,
                                            const double *rmin_tab, int64_t n_types,
                                            const double *box, double reach2,
                                            chunk_scratch *ch, int64_t n_hit)
{
    const double bx = box[0], by = box[1], bz = box[2];
    const double hx = 0.5 * bx, hy = 0.5 * by, hz = 0.5 * bz;
    const __m512d xi = _mm512_set1_pd(xs[r]), yi = _mm512_set1_pd(ys[r]);
    const __m512d zi = _mm512_set1_pd(zs[r]), qi = _mm512_set1_pd(q[r]);
    const __m512d reach = _mm512_set1_pd(reach2), none = _mm512_setzero_pd();
    const __m512i ti = _mm512_set1_epi64(type[r] * n_types), si = _mm512_set1_epi64(r);
    for (; k < stop; k += 8) {
        const __mmask8 live = lanes_first(stop - k);
        const __m256i j =
            _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(live, cols + k));
        __m512d x = _mm512_sub_pd(_mm512_mask_i32gather_pd(none, live, j, xs, 8), xi);
        __m512d y = _mm512_sub_pd(_mm512_mask_i32gather_pd(none, live, j, ys, 8), yi);
        __m512d z = _mm512_sub_pd(_mm512_mask_i32gather_pd(none, live, j, zs, 8), zi);
        if (near) {
            x = fold_near_lanes(x, bx, hx);
            y = fold_near_lanes(y, by, hy);
            z = fold_near_lanes(z, bz, hz);
        } else {
            x = min_image_lanes(x, bx, hx);
            y = min_image_lanes(y, by, hy);
            z = min_image_lanes(z, bz, hz);
        }
        const __m512d d2 = _mm512_add_pd(_mm512_add_pd(_mm512_mul_pd(x, x),
                                                       _mm512_mul_pd(y, y)),
                                         _mm512_mul_pd(z, z));
        const __mmask8 hit = _mm512_mask_cmp_pd_mask(live, d2, reach, _CMP_LT_OQ);
        const __m512i at = _mm512_add_epi64(
            ti, _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), hit, j, type, 8));
        const __m512d eps = _mm512_mask_i64gather_pd(none, hit, at, eps_tab, 8);
        const __m512d rmin = _mm512_mask_i64gather_pd(none, hit, at, rmin_tab, 8);
        const __m512d qj = _mm512_mask_i32gather_pd(none, hit, j, q, 8);
        const __m512d qq = _mm512_mul_pd(qi, qj);
        pack_pd(ch->dx + n_hit, hit, x);
        pack_pd(ch->dy + n_hit, hit, y);
        pack_pd(ch->dz + n_hit, hit, z);
        pack_pd(ch->r2 + n_hit, hit, d2);
        pack_pd(ch->eps + n_hit, hit, eps);
        pack_pd(ch->rmin + n_hit, hit, rmin);
        pack_pd(ch->qq + n_hit, hit, qq);
        pack_epi64(ch->si + n_hit, hit, si);
        pack_epi64(ch->sj + n_hit, hit, _mm512_cvtepi32_epi64(j));
        n_hit += __builtin_popcount(hit);
    }
    return n_hit;
}
#endif

ALWAYS_INLINE int64_t row_pass1(const int lanes, const int near, const int32_t *cols,
                                int64_t k, int64_t stop, int64_t r, const double *xs,
                                const double *ys, const double *zs,
                                const double *q, const int64_t *type,
                                const double *eps_tab, const double *rmin_tab,
                                int64_t n_types, const double *box, double reach2,
                                chunk_scratch *ch, int64_t n_hit)
{
#if KERNEL_AVX512F
    if (lanes)
        return row_pass1_lanes(near, cols, k, stop, r, xs, ys, zs, q, type, eps_tab,
                               rmin_tab, n_types, box, reach2, ch, n_hit);
#else
    (void)lanes;
#endif
    const double bx = box[0], by = box[1], bz = box[2];
    const double hx = 0.5 * bx, hy = 0.5 * by, hz = 0.5 * bz;
    const double xi = xs[r], yi = ys[r], zi = zs[r], qi = q[r];
    const int64_t ti = type[r] * n_types;
    for (; k < stop; k++) {
        const int64_t j = cols[k];
        double x = xs[j] - xi, y = ys[j] - yi, z = zs[j] - zi;
        if (near) {
            x = fold_near(x, bx, hx);
            y = fold_near(y, by, hy);
            z = fold_near(z, bz, hz);
        } else {
            x = min_image(x, bx, hx);
            y = min_image(y, by, hy);
            z = min_image(z, bz, hz);
        }
        const double d2 = x * x + y * y + z * z;
        const int64_t at = ti + type[j];
        ch->dx[n_hit] = x;
        ch->dy[n_hit] = y;
        ch->dz[n_hit] = z;
        ch->r2[n_hit] = d2;
        ch->eps[n_hit] = eps_tab[at];
        ch->rmin[n_hit] = rmin_tab[at];
        ch->qq[n_hit] = qi * q[j];
        ch->si[n_hit] = r;
        ch->sj[n_hit] = j;
        n_hit += d2 < reach2;
    }
    return n_hit;
}

/* One cell task of nb_rows: its block's coordinates, types and charges
 * gathered once into component-major scratch (every rows entry and type
 * checked there, the bounding box taken), the block zeroed, then the rows
 * walked in chunks of NB_CHUNK listed pairs that run across row ends.  A
 * chunk's columns are checked first, in one loop without a branch
 * (unsigned: a negative column is out of range too).  Returns 0, or -1 at
 * the first index it would not follow. */
ALWAYS_INLINE int rows_task(const int lanes, const double *pos, int64_t n_atoms,
                            const double *box,
                            const int64_t *type_idx, const double *charges,
                            const double *eps_tab, const double *rmin_tab,
                            int64_t n_types, const int32_t *cols, int64_t n_cols,
                            const int64_t *row_ptr, const int64_t *rows,
                            int64_t n_rows, const pair_consts *c, double *forces,
                            double *work, int64_t work_rows, chunk_scratch *ch,
                            pair_sums *acc)
{
    double *xs = work, *ys = work + work_rows, *zs = work + 2 * work_rows;
    double *q = work + 3 * work_rows;
    int64_t *type = (int64_t *)(work + 4 * work_rows);
    double bmin[3] = {0.0, 0.0, 0.0}, bmax[3] = {0.0, 0.0, 0.0};

    if (n_rows > work_rows || row_ptr[0] < 0 || row_ptr[n_rows] > n_cols)
        return -1;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t i = rows[r];
        if ((uint64_t)i >= (uint64_t)n_atoms || row_ptr[r] > row_ptr[r + 1])
            return -1;
        const int64_t ti = type_idx[i];
        if ((uint64_t)ti >= (uint64_t)n_types)
            return -1;
        type[r] = ti;
        q[r] = charges[i];
        for (int k = 0; k < 3; k++) {
            const double x = pos[3 * i + k];
            work[k * work_rows + r] = x;
            if (r == 0 || x < bmin[k])
                bmin[k] = x;
            if (r == 0 || x > bmax[k])
                bmax[k] = x;
        }
    }
    memset(forces, 0, 3 * (size_t)n_rows * sizeof(double));

    /* the fold, decided once for the task: no displacement of the block
     * exceeds its bounding box, and inside 1.49 box lengths the select
     * form is the general one bit for bit (axis_r2 has the argument) */
    const int near = bmax[0] - bmin[0] < 1.49 * box[0]
                     && bmax[1] - bmin[1] < 1.49 * box[1]
                     && bmax[2] - bmin[2] < 1.49 * box[2];
    const int64_t end = row_ptr[n_rows];
    int64_t r = 0;
    for (int64_t p = row_ptr[0]; p < end; p += NB_CHUNK) {
        const int64_t len = end - p < NB_CHUNK ? end - p : NB_CHUNK;
        const int32_t *col = cols + p;
        int bad = 0;
        for (int64_t k = 0; k < len; k++)
            bad |= (uint64_t)(int64_t)col[k] >= (uint64_t)n_rows;
        if (bad)
            return -1;
        int64_t n_hit = 0;
        for (int64_t k = 0; k < len;) {
            while (row_ptr[r + 1] <= p + k) /* rows that list nothing, or are done */
                r++;
            const int64_t stop = row_ptr[r + 1] - p < len ? row_ptr[r + 1] - p : len;
            if (near)
                n_hit = row_pass1(lanes, 1, col, k, stop, r, xs, ys, zs, q, type,
                                  eps_tab, rmin_tab, n_types, box, c->reach2, ch,
                                  n_hit);
            else
                n_hit = row_pass1(lanes, 0, col, k, stop, r, xs, ys, zs, q, type,
                                  eps_tab, rmin_tab, n_types, box, c->reach2, ch,
                                  n_hit);
            k = stop;
        }
        chunk_pass2(c, ch, n_hit, forces, acc);
    }
    return 0;
}

/* The cell tasks of one executor, one call a step.  Task t of the batch
 * owns block rows rows[row_off[t] .. row_off[t+1]) (atom indices), the
 * row_ptr slots from row_off[t] + t on (one per block row plus one,
 * absolute offsets into cols, int32 block rows of the partners in
 * block_pairs' row-major order) and the block of scratch that starts at row
 * block_off[t].  Pair parameters come from the n_types x n_types tables by
 * the two atoms' types and from their charges.  out holds four doubles a
 * task: the LJ sum, the electrostatic sum, the pairs inside the LJ cutoff
 * and the nanoseconds the task took by this function's own monotonic clock
 * (gather and zeroing included).  work holds 5 * work_rows doubles,
 * work_rows at least the longest block.  tab (n_tab intervals) is the Ewald
 * table, ignored in cutoff mode.  Returns 0; or -(t + 1) when task t holds
 * an index that cannot be followed - a rows entry outside pos, a type
 * outside the tables, a row_ptr that decreases or leaves cols, a column
 * outside the block, a block outside scratch - nothing outside the batch's
 * blocks and out has been written; or 1 having touched nothing when the
 * table stops short of ewald_cutoff. */
ALWAYS_INLINE int64_t nb_rows_body(const int lanes, const double *pos, int64_t n_atoms,
                                   const double *box, const int64_t *type_idx,
                                   const double *charges, const double *eps_tab,
                                   const double *rmin_tab, int64_t n_types,
                                   const int32_t *cols, int64_t n_cols,
                                   const int64_t *row_ptr, const int64_t *rows,
                                   int64_t n_list_rows, const int64_t *row_off,
                                   int64_t n_tasks, double cutoff, double switch_dist,
                                   double alpha, double ewald_cutoff,
                                   const double *tab, int64_t n_tab, double *scratch,
                                   int64_t scratch_rows, const int64_t *block_off,
                                   double *work, int64_t work_rows, double *out)
{
    pair_consts c;
    chunk_scratch ch;
    struct timespec t0, t1;

    if (pair_setup(&c, cutoff, switch_dist, alpha, ewald_cutoff, tab, n_tab))
        return 1;

    for (int64_t t = 0; t < n_tasks; t++) {
        clock_gettime(CLOCK_MONOTONIC, &t0);
        const int64_t lo = row_off[t], n_rows = row_off[t + 1] - lo;
        const int64_t at = block_off[t];
        pair_sums acc;
        if (lo < 0 || n_rows < 0 || lo + n_rows > n_list_rows
            || at < 0 || at + n_rows > scratch_rows)
            return -(t + 1);
        sums_open(&acc);
        if (rows_task(lanes, pos, n_atoms, box, type_idx, charges, eps_tab, rmin_tab,
                      n_types, cols, n_cols, row_ptr + lo + t, rows + lo, n_rows,
                      &c, scratch + 3 * at, work, work_rows, &ch, &acc))
            return -(t + 1);
        sums_close(&acc);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        out[4 * t] = acc.e_lj;
        out[4 * t + 1] = acc.e_el;
        out[4 * t + 2] = (double)acc.n_pairs;
        out[4 * t + 3] = 1e9 * (double)(t1.tv_sec - t0.tv_sec)
                         + (double)(t1.tv_nsec - t0.tv_nsec);
    }
    return 0;
}

KERNEL_BUILDS(nb_rows,
              (const double *pos, int64_t n_atoms, const double *box,
               const int64_t *type_idx, const double *charges, const double *eps_tab,
               const double *rmin_tab, int64_t n_types, const int32_t *cols,
               int64_t n_cols, const int64_t *row_ptr, const int64_t *rows,
               int64_t n_list_rows, const int64_t *row_off, int64_t n_tasks,
               double cutoff, double switch_dist, double alpha, double ewald_cutoff,
               const double *tab, int64_t n_tab, double *scratch, int64_t scratch_rows,
               const int64_t *block_off, double *work, int64_t work_rows, double *out),
              (pos, n_atoms, box, type_idx, charges, eps_tab, rmin_tab, n_types, cols,
               n_cols, row_ptr, rows, n_list_rows, row_off, n_tasks, cutoff,
               switch_dist, alpha, ewald_cutoff, tab, n_tab, scratch, scratch_rows,
               block_off, work, work_rows, out))

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

/* e^{i k.r} of the atom whose tables are t, for the k-vector with triplet m.
 * The x-y product is kept in *xy, beside the (mx, my) it belongs to, from one
 * call to the next and formed only when they change: the half-space table lists
 * the vectors of one (mx, my) consecutively, up to 2 kmax + 1 of them.  The
 * arithmetic of a vector is the same either way, and so are its bits. */
typedef struct {
    int32_t mx, my;
    double c, s;
} xy_phase;

static inline void phase(const phase_tables *t, const int32_t *m, xy_phase *xy,
                         double *c, double *s)
{
    if (m[0] != xy->mx || m[1] != xy->my) {
        const double cx = t->c[0][m[0] + M_CAP], sx = t->s[0][m[0] + M_CAP];
        const double cy = t->c[1][m[1] + M_CAP], sy = t->s[1][m[1] + M_CAP];
        xy->mx = m[0];
        xy->my = m[1];
        xy->c = cx * cy - sx * sy;
        xy->s = sx * cy + cx * sy;
    }
    const double cz = t->c[2][m[2] + M_CAP], sz = t->s[2][m[2] + M_CAP];
    *c = xy->c * cz - xy->s * sz;
    *s = xy->s * cz + xy->c * sz;
}

/* no triplet has this component (|m| <= M_CAP): the first vector of an atom
 * always forms its product */
static const xy_phase XY_NONE = {INT32_MIN, INT32_MIN, 0.0, 0.0};

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
        xy_phase xy = XY_NONE;
        fill_tables(&t, pos + 3 * a, base, mmax);
        for (int64_t k = 0; k < nk; k++) {
            phase(&t, mvecs + 3 * k, &xy, &c, &s);
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
        xy_phase xy = XY_NONE;
        fill_tables(&t, pos + 3 * a, base, mmax);
        for (int64_t k = 0; k < nk; k++) {
            phase(&t, mvecs + 3 * k, &xy, &c, &s);
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

/* ---- smooth PME: charges onto the grid, the potential back ---------------
 *
 * The two halves of smooth particle-mesh Ewald (Essmann et al. 1995) around
 * the FFT pair repro/md/ewald.py makes with scipy.fft.  An atom's scaled
 * fractional coordinate u = K x / L, folded into [0, K), has the grid point
 * floor(u) - j (periodic) carry M_n(w + j), j = 0 .. n-1, w the fraction of
 * u: the cardinal B-spline of order n, built up from M_1 by the recursion
 * below (the reference's, rounding for rounding, so both backends spread
 * onto the same points with the same weights).  The weights live in three
 * rows of PME_MAX_ORDER on the stack; the grid is the caller's.  K >= n on
 * every axis, so an atom touches each point at most once and one fold
 * brings an index into range.  The engines' order (6) is a constant in its
 * own copy of each loop, which the compiler unrolls.
 */
#define PME_MAX_ORDER 8 /* reference.PME_MAX_ORDER */
#define PME_ORDER 6     /* repro.md.ewald.PME_ORDER */

/* 1 / (p - 1): the recursion multiplies, as the reference does */
static const double PME_INV[PME_MAX_ORDER + 1] = {
    0.0, 0.0, 1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7,
};

typedef struct {
    int64_t at[3][PME_MAX_ORDER];
    double m[3][PME_MAX_ORDER], dm[3][PME_MAX_ORDER];
    /* along z, in the order of the points: the first point (negative when
     * the run wraps) and the weights and derivatives from it on */
    int64_t z0;
    double mz[PME_MAX_ORDER], dmz[PME_MAX_ORDER];
} pme_atom;

/* Grid points, weights and derivatives (in u) of the atom at x. */
ALWAYS_INLINE void pme_splines(pme_atom *s, const double *x, const double *box,
                               const int64_t *dims, const int order)
{
    for (int d = 0; d < 3; d++) {
        const double size = (double)dims[d];
        double f = x[d] / box[d];
        f -= floor(f);
        double u = f * size;
        if (u >= size) /* f rounded up to 1.0 */
            u -= size;
        /* a non-finite coordinate reads point 0 with NaN weights: the
         * result is NaN, as the classic sum's, and no index is wild */
        const int64_t base = u < size ? (int64_t)u : 0;
        const double w = u - (double)base;
        double *m = s->m[d], *dm = s->dm[d];
        m[0] = 1.0;
        for (int p = 2; p <= order; p++) {
            const double inv = PME_INV[p];
            if (p == order) { /* M_n' = M_{n-1}(x) - M_{n-1}(x - 1) */
                dm[0] = m[0];
                for (int j = 1; j < p - 1; j++)
                    dm[j] = m[j] - m[j - 1];
                dm[p - 1] = -m[p - 2];
            }
            m[p - 1] = (1.0 - w) * m[p - 2] * inv;
            for (int j = p - 2; j > 0; j--)
                m[j] = ((w + j) * m[j] + ((p - j) - w) * m[j - 1]) * inv;
            m[0] = w * m[0] * inv;
        }
        for (int j = 0; j < order; j++)
            s->at[d][j] = base - j < 0 ? base - j + dims[d] : base - j;
        if (d == 2) {
            s->z0 = base - (order - 1);
            for (int t = 0; t < order; t++) {
                s->mz[t] = m[order - 1 - t];
                s->dmz[t] = dm[order - 1 - t];
            }
        }
    }
}

ALWAYS_INLINE void spread_atoms(const double *pos, const double *q, int64_t n,
                                const double *box, const int64_t *dims,
                                const int order, double *grid)
{
    const int64_t k1 = dims[1], k2 = dims[2];
    pme_atom s;
    for (int64_t a = 0; a < n; a++) {
        pme_splines(&s, pos + 3 * a, box, dims, order);
        for (int jx = 0; jx < order; jx++) {
            const double qx = q[a] * s.m[0][jx];
            for (int jy = 0; jy < order; jy++) {
                const double qxy = qx * s.m[1][jy];
                double *row = grid + (s.at[0][jx] * k1 + s.at[1][jy]) * k2;
                if (s.z0 >= 0) /* the z run does not wrap: contiguous */
                    for (int t = 0; t < order; t++)
                        row[s.z0 + t] += qxy * s.mz[t];
                else
                    for (int t = 0; t < order; t++)
                        row[s.at[2][order - 1 - t]] += qxy * s.mz[t];
            }
        }
    }
}

ALWAYS_INLINE double gather_atoms(const double *pos, const double *q, int64_t n,
                                  const double *box, const int64_t *dims,
                                  const int order, const double *grid,
                                  double *forces)
{
    const int64_t k1 = dims[1], k2 = dims[2];
    const double scale[3] = {dims[0] / box[0], dims[1] / box[1], dims[2] / box[2]};
    pme_atom s;
    double e = 0.0;
    for (int64_t a = 0; a < n; a++) {
        pme_splines(&s, pos + 3 * a, box, dims, order);
        /* per z point of the run, the potential summed over x and y with
         * the weights of phi, of d/dx and of d/dy: the z points side by
         * side, so the loop vectorises without reordering a sum */
        double acc[PME_MAX_ORDER] = {0.0}, acc_x[PME_MAX_ORDER] = {0.0};
        double acc_y[PME_MAX_ORDER] = {0.0}, wrapped[PME_MAX_ORDER];
        for (int jx = 0; jx < order; jx++) {
            for (int jy = 0; jy < order; jy++) {
                const double *row = grid + (s.at[0][jx] * k1 + s.at[1][jy]) * k2;
                const double *v = row + s.z0;
                if (s.z0 < 0) {
                    for (int t = 0; t < order; t++)
                        wrapped[t] = row[s.at[2][order - 1 - t]];
                    v = wrapped;
                }
                const double w = s.m[0][jx] * s.m[1][jy];
                const double w_x = s.dm[0][jx] * s.m[1][jy];
                const double w_y = s.m[0][jx] * s.dm[1][jy];
                for (int t = 0; t < order; t++) {
                    acc[t] += w * v[t];
                    acc_x[t] += w_x * v[t];
                    acc_y[t] += w_y * v[t];
                }
            }
        }
        double phi = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
        for (int t = 0; t < order; t++) {
            phi += s.mz[t] * acc[t];
            gx += s.mz[t] * acc_x[t];
            gy += s.mz[t] * acc_y[t];
            gz += s.dmz[t] * acc[t];
        }
        forces[3 * a] -= q[a] * gx * scale[0];
        forces[3 * a + 1] -= q[a] * gy * scale[1];
        forces[3 * a + 2] -= q[a] * gz * scale[2];
        e += q[a] * phi;
    }
    return 0.5 * e;
}

static int pme_bad(const int64_t *dims, int order)
{
    return order < 2 || order > PME_MAX_ORDER
           || dims[0] < order || dims[1] < order || dims[2] < order;
}

/* grid (dims[0] x dims[1] x dims[2]) = sum_a q_a M(u_a - k), each point's
 * charges summed in atom order.  Returns 0, or 1 having written nothing
 * when order lies outside [2, PME_MAX_ORDER] or an axis is shorter than
 * it. */
int pme_spread(const double *pos, const double *q, int64_t n, const double *box,
               const int64_t *dims, int order, double *grid)
{
    if (pme_bad(dims, order))
        return 1;
    memset(grid, 0, (size_t)(dims[0] * dims[1] * dims[2]) * sizeof(double));
    if (order == PME_ORDER)
        spread_atoms(pos, q, n, box, dims, PME_ORDER, grid);
    else
        spread_atoms(pos, q, n, box, dims, order, grid);
    return 0;
}

/* phi_a = sum_k M(u_a - k) grid(k): the forces -q_a grad phi_a accumulate
 * into forces, sum_a q_a phi_a / 2 goes to *energy.  The same refusal as
 * pme_spread. */
int pme_gather(const double *pos, const double *q, int64_t n, const double *box,
               const int64_t *dims, int order, const double *grid,
               double *forces, double *energy)
{
    if (pme_bad(dims, order))
        return 1;
    if (order == PME_ORDER)
        *energy = gather_atoms(pos, q, n, box, dims, PME_ORDER, grid, forces);
    else
        *energy = gather_atoms(pos, q, n, box, dims, order, grid, forces);
    return 0;
}

/* ---- bonded terms of one kind ---------------------------------------------
 *
 * The reference's formulas term by term (repro/backend/reference.py:
 * harmonic bond and angle, cosine torsion, harmonic improper with the
 * Bekker torsion gradient), each displacement folded like the reference's
 * (d - L rint(d / L)), the same guards on short vectors and collinear
 * angles.  Terms are taken in list order: every atom and force row of a
 * term is checked, then its energy is added and its forces accumulated at
 * the term's sidx rows, first atom to last - one reduction order, so the
 * bits depend on the inputs only.  The reference sums with BLAS dots and
 * per-slot scatters instead, which is why the two agree to rounding (1e-9
 * is the contract), not bit for bit.
 */
static const double MIN_SIN = 1e-8;   /* collinear-angle guard */
static const double MIN_NORM = 1e-12; /* short-vector guard */

static inline void fold3(double *d, const double *a, const double *b,
                         const double *box)
{
    for (int k = 0; k < 3; k++)
        d[k] = min_image(a[k] - b[k], box[k], 0.5 * box[k]);
}

static inline double dot3(const double *a, const double *b)
{
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}

static inline void cross3(double *c, const double *a, const double *b)
{
    c[0] = a[1] * b[2] - a[2] * b[1];
    c[1] = a[2] * b[0] - a[0] * b[2];
    c[2] = a[0] * b[1] - a[1] * b[0];
}

/* kind 0 bond (idx m x 2), 1 angle (m x 3), 2 dihedral, 3 improper (m x
 * 4); kpar, p1, p2 as in the contract.  Forces accumulate at the sidx rows
 * of forces (n_rows rows).  Returns 0 with the energy stored, -1 at the
 * first atom outside pos or row outside forces (earlier terms have been
 * accumulated), 1 for a kind it does not know having touched nothing. */
int bonded_terms(const double *pos, int64_t n_atoms, const double *box, int kind,
                 const int64_t *idx, const int64_t *sidx, int64_t m,
                 const double *kpar, const double *p1, const double *p2,
                 double *forces, int64_t n_rows, double *energy)
{
    if (kind < 0 || kind > 3)
        return 1;
    const int w = kind == 0 ? 2 : kind == 1 ? 3 : 4;
    double e = 0.0;
    for (int64_t t = 0; t < m; t++) {
        const int64_t *at = idx + w * t, *row = sidx + w * t;
        double f[4][3];
        for (int a = 0; a < w; a++)
            if ((uint64_t)at[a] >= (uint64_t)n_atoms
                || (uint64_t)row[a] >= (uint64_t)n_rows)
                return -1;
        const double *x0 = pos + 3 * at[0], *x1 = pos + 3 * at[1];
        if (kind == 0) { /* E = k (r - r0)^2 */
            double d[3];
            fold3(d, x1, x0, box);
            const double r = sqrt(dot3(d, d));
            const double stretch = r - p1[t];
            e += kpar[t] * (stretch * stretch);
            const double fmag = 2.0 * kpar[t] * stretch / (r > MIN_NORM ? r : MIN_NORM);
            for (int k = 0; k < 3; k++) {
                f[0][k] = fmag * d[k];
                f[1][k] = -f[0][k];
            }
        } else if (kind == 1) { /* E = k (theta - theta0)^2, vertex at[1] */
            const double *x2 = pos + 3 * at[2];
            double a[3], b[3];
            fold3(a, x0, x1, box);
            fold3(b, x2, x1, box);
            const double na = sqrt(dot3(a, a)), nb = sqrt(dot3(b, b));
            for (int k = 0; k < 3; k++) {
                a[k] /= na;
                b[k] /= nb;
            }
            double cos_t = dot3(a, b);
            cos_t = cos_t > 1.0 ? 1.0 : cos_t < -1.0 ? -1.0 : cos_t;
            double sin_t = sqrt(1.0 - cos_t * cos_t);
            sin_t = sin_t > MIN_SIN ? sin_t : MIN_SIN;
            const double diff = acos(cos_t) - p1[t];
            e += kpar[t] * (diff * diff);
            const double de = 2.0 * kpar[t] * diff;
            const double ci = -de / (na * sin_t), ck = -de / (nb * sin_t);
            for (int k = 0; k < 3; k++) {
                f[0][k] = ci * (cos_t * a[k] - b[k]);
                f[2][k] = ck * (cos_t * b[k] - a[k]);
                f[1][k] = -(f[0][k] + f[2][k]);
            }
        } else { /* torsions: phi = atan2((m x n).b2 / |b2|, m.n) */
            const double *x2 = pos + 3 * at[2], *x3 = pos + 3 * at[3];
            double b1[3], b2[3], b3[3], mv[3], nv[3], mxn[3];
            fold3(b1, x1, x0, box);
            fold3(b2, x2, x1, box);
            fold3(b3, x3, x2, box);
            cross3(mv, b1, b2);
            cross3(nv, b2, b3);
            cross3(mxn, mv, nv);
            const double nb2 = sqrt(dot3(b2, b2));
            const double phi = atan2(dot3(mxn, b2) / (nb2 > MIN_NORM ? nb2 : MIN_NORM),
                                     dot3(mv, nv));
            double de;
            if (kind == 2) { /* E = k (1 + cos(n phi - delta)) */
                const double arg = p1[t] * phi - p2[t];
                e += kpar[t] * (1.0 + cos(arg));
                de = -kpar[t] * p1[t] * sin(arg);
            } else { /* E = k (psi - psi0)^2, the difference wrapped to [-pi, pi) */
                double diff = fmod(phi - p1[t] + PI, 2.0 * PI);
                if (diff < 0.0)
                    diff += 2.0 * PI;
                diff -= PI;
                e += kpar[t] * (diff * diff);
                de = 2.0 * kpar[t] * diff;
            }
            double m2 = dot3(mv, mv), n2 = dot3(nv, nv), b2sq = nb2 * nb2;
            m2 = m2 > MIN_NORM ? m2 : MIN_NORM;
            n2 = n2 > MIN_NORM ? n2 : MIN_NORM;
            b2sq = b2sq > MIN_NORM ? b2sq : MIN_NORM;
            const double ti = dot3(b1, b2) / b2sq, tl = dot3(b3, b2) / b2sq;
            for (int k = 0; k < 3; k++) {
                const double gi = -nb2 / m2 * mv[k], gl = nb2 / n2 * nv[k];
                f[0][k] = -de * gi;
                f[1][k] = -de * (-(1.0 + ti) * gi + tl * gl);
                f[2][k] = -de * (-(1.0 + tl) * gl + ti * gi);
                f[3][k] = -de * gl;
            }
        }
        for (int a = 0; a < w; a++)
            for (int k = 0; k < 3; k++)
                forces[3 * row[a] + k] += f[a][k];
    }
    *energy = e;
    return 0;
}

/* ---- pairs of one dense cell block: counted, or listed ------------------
 *
 * The block is the stripe part::n_parts of the rows of cell a against all
 * of cell b, or (atoms_b NULL) the upper triangle of cell a against
 * itself.  A row is three passes: squared distances of the row atom to
 * every column, one axis at a time over contiguous column coordinates;
 * the in-range columns compacted without a branch; then, in list mode, the
 * exclusion lookup and one int32 store for those columns only.  The
 * arithmetic is the reference's bit for bit - the fold d - L rint(d / L)
 * per component, the sum (dx^2 + dy^2) + dz^2 - so the lists are the
 * reference's arrays exactly.
 *
 * A list is a row list over the task's force block - the rows the driver
 * gathers: a self block's are cell a's own, a pair block's the stripe
 * (0 .. ns) followed by cell b (ns ..).  cols names, per listed pair, the
 * partner's block row, in row-major order; row_ptr, one entry per block
 * row plus one, holds each row's absolute range in cols.  Rows that list
 * nothing - cell b's, rows outside the stripe - are empty ranges.  The row
 * atom, its force row and the pair's parameters are what the block already
 * knows; nb_rows reads them from there.
 */
#define BLOCK_NO_FIT (-1)
#define BLOCK_BAD_INDEX (-2)
#define BLOCK_WORK 5 /* doubles of scratch per atom of cell b */

/* r2[c] += fold(x - xb[c])^2 for lo <= c < hi; xb lies in [bmin, bmax].
 * The bounds pick the cheapest fold that is still d - L rint(d / L):
 * none when every |d| <= L/2 (rint of at most a half is zero); otherwise,
 * while every |d| < 1.49 L, rint(d / L) is the sign of d where |d| > L/2
 * (the quotient then rounds to more than a half, and to less than 1.5)
 * and L times it is exact, so the fold is two selects; else the general
 * form.  Adding to a zeroed r2 leaves the sum (dx^2 + dy^2) + dz^2. */
ALWAYS_INLINE void axis_r2(double *r2, const double *xb, int64_t lo, int64_t hi,
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

/* The columns lo <= c < hi with r2[c] < r2_max, ascending, to hit;
 * returns how many.  The portable body writes every column at the count
 * and advances past the hits only; the AVX-512F build compares eight at a
 * time and compresses the hits' columns to the count in order. */
#if KERNEL_AVX512F
static inline LANES int64_t row_hits_lanes(const double *r2, int64_t lo, int64_t hi,
                                           double r2_max, int64_t *hit)
{
    const __m512d reach = _mm512_set1_pd(r2_max);
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    int64_t n_hit = 0;
    for (int64_t c = lo; c < hi; c += 8) {
        const __mmask8 live = lanes_first(hi - c);
        const __m512d d2 = _mm512_maskz_loadu_pd(live, r2 + c);
        const __mmask8 in = _mm512_mask_cmp_pd_mask(live, d2, reach, _CMP_LT_OQ);
        pack_epi64(hit + n_hit, in, _mm512_add_epi64(_mm512_set1_epi64(c), lane));
        n_hit += __builtin_popcount(in);
    }
    return n_hit;
}
#endif

ALWAYS_INLINE int64_t row_hits(const int lanes, const double *r2, int64_t lo,
                               int64_t hi, double r2_max, int64_t *hit)
{
#if KERNEL_AVX512F
    if (lanes)
        return row_hits_lanes(r2, lo, hi, r2_max, hit);
#else
    (void)lanes;
#endif
    int64_t n_hit = 0;
    for (int64_t c = lo; c < hi; c++) {
        hit[n_hit] = c;
        n_hit += r2[c] < r2_max;
    }
    return n_hit;
}

/* Count mode (excl_ptr NULL): returns the pairs of the block within r and
 * writes nothing.  List mode: pairs within r and not in the per-atom
 * exclusion table (excl_idx[excl_ptr[i] .. excl_ptr[i+1]) ascending,
 * n_excl entries) go to cols (`capacity` entries) from `offset` on, and
 * row_ptr - one entry per block row plus one, the caller's to size - gets
 * every row's range; returns how many, or BLOCK_NO_FIT having written
 * nothing at or beyond `capacity` (row_ptr is then unspecified).
 * BLOCK_BAD_INDEX at the first atom outside pos or table row outside
 * excl_idx.  work holds BLOCK_WORK * nb doubles. */
ALWAYS_INLINE int64_t block_pairs_body(const int lanes, const double *pos,
                                       int64_t n_atoms, const double *box,
                                       const int64_t *atoms_a, int64_t na,
                                       const int64_t *atoms_b, int64_t nb,
                                       int64_t part, int64_t n_parts, double r,
                                       const int64_t *excl_ptr, const int64_t *excl_idx,
                                       int64_t n_excl, int32_t *cols, int64_t *row_ptr,
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
    int64_t *hit = (int64_t *)(work + 4 * nb);
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
    }

    const int64_t ns = (na - part + n_parts - 1) / n_parts; /* stripe rows */
    const int64_t n_rows = self ? na : ns + nb;             /* block rows */
    const int64_t shift = self ? 0 : ns; /* a column's block row is c + shift */
    int64_t next = 0; /* the first block row whose range has no start yet */
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
        const int64_t n_hit = row_hits(lanes, r2, lo, nb, r2_max, hit);
        if (!listing) {
            n += n_hit;
            continue;
        }
        const int64_t e_lo = excl_ptr[i], e_hi = excl_ptr[i + 1];
        if (e_lo < 0 || e_lo > e_hi || e_hi > n_excl)
            return BLOCK_BAD_INDEX;
        for (const int64_t mine = self ? row : s; next <= mine; next++)
            row_ptr[next] = offset + n;
        for (int64_t h = 0; h < n_hit; h++) {
            const int64_t c = hit[h];
            const int64_t j = atoms_b[c];
            int64_t e = e_lo;
            while (e < e_hi && excl_idx[e] < j)
                e++;
            if (e < e_hi && excl_idx[e] == j)
                continue;
            if (offset + n >= capacity)
                return BLOCK_NO_FIT;
            cols[offset + n] = (int32_t)(c + shift);
            n++;
        }
    }
    if (listing)
        for (; next <= n_rows; next++)
            row_ptr[next] = offset + n;
    return n;
}

KERNEL_BUILDS(block_pairs,
              (const double *pos, int64_t n_atoms, const double *box,
               const int64_t *atoms_a, int64_t na, const int64_t *atoms_b, int64_t nb,
               int64_t part, int64_t n_parts, double r, const int64_t *excl_ptr,
               const int64_t *excl_idx, int64_t n_excl, int32_t *cols, int64_t *row_ptr,
               int64_t offset, int64_t capacity, double *work),
              (pos, n_atoms, box, atoms_a, na, atoms_b, nb, part, n_parts, r, excl_ptr,
               excl_idx, n_excl, cols, row_ptr, offset, capacity, work))
