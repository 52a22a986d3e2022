#include "scgnn/tensor/kernels.hpp"

#include <cstring>

namespace scgnn::tensor::kern {

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
    for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

double sq_dist(const float* a, const float* b, std::size_t n) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        acc += d * d;
    }
    return acc;
}

namespace {

/// Vec<L>::type is L floats with lane-wise arithmetic: a GCC/Clang vector
/// extension, not an intrinsic, so it compiles to SSE, AVX, AVX-512 or
/// NEON alike. Each lane multiplies and adds with separate roundings, as
/// scalar code does. Each width is its own specialisation because GCC 12
/// ignores a vector_size that depends on a template parameter. Tiles
/// accumulate in these rather than in a `float acc[W]` because GCC
/// unrolls the scalar tile early and, under -march=native with AVX-512,
/// then vectorises across the terms instead of the columns (gathers and
/// in-order reductions), which made SpMM 5× slower than plain AXPY.
template <std::size_t L>
struct Vec;
template <>
struct Vec<4> {
    using type = float __attribute__((vector_size(16)));
};
template <>
struct Vec<8> {
    using type = float __attribute__((vector_size(32)));
};
template <>
struct Vec<16> {
    using type = float __attribute__((vector_size(64)));
};

/// y[0, W) = Σ_t a_t · x_t[j0, j0 + W) over the terms of `terms`. The
/// tile lives in local accumulators of min(W, L) lanes for the whole
/// reduction and is stored once.
template <std::size_t W, std::size_t L, typename Terms>
inline void row_tile(float* y, std::size_t j0, const Terms& terms) {
    constexpr std::size_t V = W < L ? W : L;
    using V_t = typename Vec<V>::type;
    V_t acc[W / V] = {};
    terms([&](float a, const float* x) {
        for (std::size_t q = 0; q < W / V; ++q) {
            V_t v;
            std::memcpy(&v, x + j0 + V * q, sizeof v);
            acc[q] += a * v;
        }
    });
    std::memcpy(y, acc, sizeof acc);
}

/// row_tile() for the last w < 8 columns of a row.
template <typename Terms>
inline void row_tail(float* y, std::size_t j0, std::size_t w,
                     const Terms& terms) {
    float acc[8] = {};
    terms([&](float a, const float* x) {
        for (std::size_t j = 0; j < w; ++j) acc[j] += a * x[j0 + j];
    });
    for (std::size_t j = 0; j < w; ++j) y[j] = acc[j];
}

/// Columns [j, n) of a row that fit no wider tile: at most one tile each
/// of W, W/2, ..., 8 floats, then the tail.
template <std::size_t W, std::size_t L, typename Terms>
inline void row_rest(float* y, std::size_t j, std::size_t n,
                     const Terms& terms) {
    if constexpr (W >= 8) {
        if (j + W <= n) {
            row_tile<W, L>(y + j, j, terms);
            j += W;
        }
        row_rest<W / 2, L>(y, j, n, terms);
    } else if (j < n) {
        row_tail(y + j, j, n - j, terms);
    }
}

/// The row kernel at L lanes: y[0, n) = Σ_t a_t · x_t, overwriting y.
/// `terms(visit)` calls `visit(a_t, x_t)` once per term, where x_t points
/// at a source row of at least n floats. Every y[j] starts from +0 and
/// adds the separately rounded products a_t · x_t[j] in the order the
/// terms are visited, exactly as repeated axpy(a_t, x_t, y, n) into a
/// zeroed row would, so every L gives the same bits. The row is swept in
/// 4L-float tiles (four accumulators), then the narrower tiles and the
/// tail of row_rest(), and `terms` runs once per tile, so it must visit
/// the same terms each time.
template <std::size_t L, typename Terms>
inline void row(float* y, std::size_t n, const Terms& terms) {
    std::size_t j = 0;
    for (; j + 4 * L <= n; j += 4 * L) row_tile<4 * L, L>(y + j, j, terms);
    row_rest<2 * L, L>(y, j, n, terms);
}

template <std::size_t L>
inline void spmm_body(const SpmmArgs& op, std::size_t lo, std::size_t hi) {
    const std::uint64_t* ptr = op.ptr;
    const std::uint32_t* col = op.col;
    const float* val = op.val;
    const float* x = op.x;
    const std::size_t f = op.f;
    for (std::size_t r = lo; r < hi; ++r) {
        const std::uint64_t b = ptr[r], e = ptr[r + 1];
        float* y = op.y + (op.dst ? op.dst[r] : r) * f;
        row<L>(y, f, [&](auto&& visit) {
            for (std::uint64_t i = b; i < e; ++i)
                visit(val[i], x + static_cast<std::size_t>(col[i]) * f);
        });
    }
}

template <std::size_t L, bool SkipZero>
inline void gemm_rows_of(const GemmArgs& op, std::size_t lo, std::size_t hi) {
    const float* b = op.b;
    const std::size_t k = op.k, n = op.n;
    for (std::size_t i = lo; i < hi; ++i) {
        const float* ai = op.a + i * k;
        row<L>(op.c + i * n, n, [&](auto&& visit) {
            for (std::size_t p = 0; p < k; ++p)
                if (!SkipZero || ai[p] != 0.0f) visit(ai[p], b + p * n);
        });
    }
}

template <std::size_t L>
inline void gemm_body(const GemmArgs& op, std::size_t lo, std::size_t hi) {
    if (op.skip_zero)
        gemm_rows_of<L, true>(op, lo, hi);
    else
        gemm_rows_of<L, false>(op, lo, hi);
}

/// The IB×T tile of C = Aᵀ·B at (i0, j0): the tile stays in local vector
/// accumulators over all k rows, which each add IB contiguous floats of
/// A times T of B.
template <std::size_t IB, std::size_t T, std::size_t L>
inline void at_b_tile(const AtBArgs& op, std::size_t i0, std::size_t j0) {
    constexpr std::size_t V = T < L ? T : L;
    using V_t = typename Vec<V>::type;
    V_t acc[IB][T / V] = {};
    for (std::size_t p = 0; p < op.k; ++p) {
        const float* ap = op.a + p * op.m + i0;
        V_t bv[T / V];
        std::memcpy(bv, op.b + p * op.n + j0, sizeof bv);
        for (std::size_t ii = 0; ii < IB; ++ii) {
            if (ap[ii] == 0.0f) continue;
            for (std::size_t q = 0; q < T / V; ++q)
                acc[ii][q] += ap[ii] * bv[q];
        }
    }
    for (std::size_t ii = 0; ii < IB; ++ii)
        std::memcpy(op.c + (i0 + ii) * op.n + j0, acc[ii], sizeof acc[ii]);
}

/// at_b_tile() for an ib×tw edge tile (ib ≤ IB, tw ≤ T), still one pass
/// over A and B per tile. Outputs whose width is not a multiple of T
/// (the 10-class workloads' last layer) run every tile here.
template <std::size_t IB, std::size_t T>
inline void at_b_edge(const AtBArgs& op, std::size_t i0, std::size_t j0,
                      std::size_t ib, std::size_t tw) {
    float acc[IB][T] = {};
    for (std::size_t p = 0; p < op.k; ++p) {
        const float* ap = op.a + p * op.m + i0;
        const float* bp = op.b + p * op.n + j0;
        for (std::size_t ii = 0; ii < ib; ++ii) {
            if (ap[ii] == 0.0f) continue;
            for (std::size_t jj = 0; jj < tw; ++jj)
                acc[ii][jj] += ap[ii] * bp[jj];
        }
    }
    for (std::size_t ii = 0; ii < ib; ++ii)
        for (std::size_t jj = 0; jj < tw; ++jj)
            op.c[(i0 + ii) * op.n + j0 + jj] = acc[ii][jj];
}

template <std::size_t IB, std::size_t T, std::size_t L>
inline void at_b_tiles_of(const AtBArgs& op, std::size_t lo, std::size_t hi) {
    const std::size_t tiles_j = (op.n + T - 1) / T;
    for (std::size_t t = lo; t < hi; ++t) {
        const std::size_t i0 = t / tiles_j * IB, j0 = t % tiles_j * T;
        const std::size_t ib = IB < op.m - i0 ? IB : op.m - i0;
        const std::size_t tw = T < op.n - j0 ? T : op.n - j0;
        if (ib == IB && tw == T)
            at_b_tile<IB, T, L>(op, i0, j0);
        else
            at_b_edge<IB, T>(op, i0, j0, ib, tw);
    }
}

template <std::size_t L>
inline void at_b_body(const AtBArgs& op, std::size_t lo, std::size_t hi) {
    if (op.tile_cols() == 8)
        at_b_tiles_of<4, 8, L>(op, lo, hi);
    else
        at_b_tiles_of<2, 16, L>(op, lo, hi);
}

// The wider tiers. `target` lets each body use the tier's registers;
// `flatten` inlines the whole template tree into it, since GCC compiles
// an out-of-line template for the baseline target whatever its caller's
// target is.
#if defined(__x86_64__) || defined(__i386__)
#define SCGNN_TIER(isa) __attribute__((target(isa), flatten))
#else
// No wider tier exists here; the entries alias the baseline bodies and
// supports() never selects them.
#define SCGNN_TIER(isa)
#endif

SCGNN_TIER("avx2")
void spmm_avx2(const SpmmArgs& op, std::size_t lo, std::size_t hi) {
    spmm_body<8>(op, lo, hi);
}
SCGNN_TIER("avx2")
void gemm_avx2(const GemmArgs& op, std::size_t lo, std::size_t hi) {
    gemm_body<8>(op, lo, hi);
}
SCGNN_TIER("avx2")
void at_b_avx2(const AtBArgs& op, std::size_t lo, std::size_t hi) {
    at_b_body<8>(op, lo, hi);
}
SCGNN_TIER("avx512f")
void spmm_avx512(const SpmmArgs& op, std::size_t lo, std::size_t hi) {
    spmm_body<16>(op, lo, hi);
}
SCGNN_TIER("avx512f")
void gemm_avx512(const GemmArgs& op, std::size_t lo, std::size_t hi) {
    gemm_body<16>(op, lo, hi);
}
SCGNN_TIER("avx512f")
void at_b_avx512(const AtBArgs& op, std::size_t lo, std::size_t hi) {
    at_b_body<16>(op, lo, hi);
}

#undef SCGNN_TIER

} // namespace

namespace detail {

const Tier kTiers[3] = {
    {Isa::kBaseline, spmm_body<4>, gemm_body<4>, at_b_body<4>},
    {Isa::kAvx2, spmm_avx2, gemm_avx2, at_b_avx2},
    {Isa::kAvx512, spmm_avx512, gemm_avx512, at_b_avx512},
};

bool supports(Isa isa) noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    switch (isa) {
    case Isa::kBaseline: return true;
    case Isa::kAvx2: return __builtin_cpu_supports("avx2");
    case Isa::kAvx512: return __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return isa == Isa::kBaseline;
#endif
}

const Tier& active() noexcept {
    static const Tier& tier = supports(Isa::kAvx512) ? kTiers[2]
                              : supports(Isa::kAvx2) ? kTiers[1]
                                                     : kTiers[0];
    return tier;
}

} // namespace detail

const char* isa_name(Isa isa) noexcept {
    switch (isa) {
    case Isa::kBaseline: return "baseline";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    }
    return "unknown";
}

Isa active_isa() noexcept { return detail::active().isa; }

void spmm_rows(const SpmmArgs& op, std::size_t lo, std::size_t hi) {
    detail::active().spmm(op, lo, hi);
}

void gemm_rows(const GemmArgs& op, std::size_t lo, std::size_t hi) {
    detail::active().gemm(op, lo, hi);
}

void at_b_tiles(const AtBArgs& op, std::size_t lo, std::size_t hi) {
    detail::active().at_b(op, lo, hi);
}

} // namespace scgnn::tensor::kern
