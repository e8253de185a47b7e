#include "gemm_kernel.hh"

#include <cstring>

#include "common/logging.hh"

// Bit-exactness needs every product rounded before it is added. The
// AVX-512F variant may use fused multiply-add instructions, and GCC
// contracts `c + a * b` into one by default, so contraction is off for
// this file. A pragma rather than a build flag, so that every build of
// these sources gets it.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace lsdgnn {
namespace axe {

namespace {

// Everything below is force-inlined into the per-ISA entry points, so
// each one compiles the same source for its own instruction set.
#define LSD_GEMM_INLINE inline __attribute__((always_inline))

typedef float V4 __attribute__((vector_size(16)));
typedef float V8 __attribute__((vector_size(32)));
typedef float V16 __attribute__((vector_size(64)));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(float);

// Unaligned loads and stores. Vectors pass by reference: by value
// they would take the build target's calling convention.
template <typename V>
LSD_GEMM_INLINE void
load(V &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

template <typename V>
LSD_GEMM_INLINE void
store(float *p, const V &v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * acc[r][v] = sum over kk ascending of a[i + r][kk] * b[kk][j + v*W],
 * from +0: the scalar loop's order for every element.
 */
template <typename V, int MR, int NV>
LSD_GEMM_INLINE void
accumulate(const GemmTerm &t, std::uint32_t k, std::size_t i,
           std::size_t j, V (&acc)[MR][NV])
{
    constexpr std::size_t W = kLanes<V>;
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = V{};
    const float *a = t.a + i * t.lda;
    const float *b = t.b + j;
    for (std::uint32_t kk = 0; kk < k; ++kk, b += t.ldb) {
        V bv[NV];
        for (int v = 0; v < NV; ++v)
            load(bv[v], b + v * W);
        for (int r = 0; r < MR; ++r) {
            const float ar = a[r * t.lda + kk];
            for (int v = 0; v < NV; ++v)
                acc[r][v] += ar * bv[v];
        }
    }
}

/** The MR x (NV * W) output tile at (i, j), epilogue included. */
template <typename V, int MR, int NV>
LSD_GEMM_INLINE void
tile(const GemmArgs &p, std::size_t i, std::size_t j)
{
    constexpr std::size_t W = kLanes<V>;
    const auto out = [&](int r, int v) {
        return p.c + (i + r) * p.ldc + j + v * W;
    };
    V acc[MR][NV];
    accumulate<V, MR, NV>(p.first, p.k, i, j, acc);
    if (p.second.b != nullptr) {
        // Park the first sum in c, so registers hold one term's tile.
        for (int r = 0; r < MR; ++r)
            for (int v = 0; v < NV; ++v)
                store(out(r, v), acc[r][v]);
        accumulate<V, MR, NV>(p.second, p.k, i, j, acc);
        for (int r = 0; r < MR; ++r)
            for (int v = 0; v < NV; ++v) {
                V first;
                load(first, out(r, v));
                acc[r][v] = first + acc[r][v];
            }
    }
    if (p.bias != nullptr)
        for (int v = 0; v < NV; ++v) {
            V bias;
            load(bias, p.bias + j + v * W);
            for (int r = 0; r < MR; ++r)
                acc[r][v] = acc[r][v] + bias;
        }
    if (p.relu)
        for (int r = 0; r < MR; ++r)
            for (int v = 0; v < NV; ++v)
                acc[r][v] = acc[r][v] < V{} ? V{} : acc[r][v];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            store(out(r, v), acc[r][v]);
}

/**
 * Rows [i, i + MR), every column: full tiles first, then narrower
 * vectors, then single columns for the tail.
 */
template <typename V, int MR, int NV>
LSD_GEMM_INLINE void
rowBlock(const GemmArgs &p, std::size_t i)
{
    constexpr std::size_t W = kLanes<V>;
    std::size_t j = 0;
    for (; j + NV * W <= p.n; j += NV * W)
        tile<V, MR, NV>(p, i, j);
    for (; j + W <= p.n; j += W)
        tile<V, MR, 1>(p, i, j);
    if constexpr (W > 8)
        for (; j + 8 <= p.n; j += 8)
            tile<V8, MR, 1>(p, i, j);
    if constexpr (W > 4)
        for (; j + 4 <= p.n; j += 4)
            tile<V4, MR, 1>(p, i, j);
    for (; j < p.n; ++j)
        tile<float, MR, 1>(p, i, j);
}

template <typename V, int MR, int NV>
LSD_GEMM_INLINE void
run(const GemmArgs &p)
{
    std::size_t i = 0;
    for (; i + MR <= p.m; i += MR)
        rowBlock<V, MR, NV>(p, i);
    for (; i < p.m; ++i)
        rowBlock<V, 1, NV>(p, i);
}

void
gemmGeneric(const GemmArgs &p)
{
    run<V4, 4, 2>(p);
}

#if defined(__x86_64__) || defined(__i386__)
#define LSD_GEMM_X86 1

__attribute__((target("avx2"))) void
gemmAvx2(const GemmArgs &p)
{
    run<V8, 4, 2>(p);
}

__attribute__((target("avx512f"))) void
gemmAvx512(const GemmArgs &p)
{
    run<V16, 4, 4>(p);
}
#endif

bool
supported(GemmIsa isa)
{
#ifdef LSD_GEMM_X86
    __builtin_cpu_init();
#endif
    switch (isa) {
      case GemmIsa::Generic:
        return true;
#ifdef LSD_GEMM_X86
      case GemmIsa::Avx2:
        return __builtin_cpu_supports("avx2");
      case GemmIsa::Avx512:
        return __builtin_cpu_supports("avx512f");
#endif
      default:
        return false;
    }
}

} // namespace

void
gemm(const GemmArgs &args, GemmIsa isa)
{
    lsd_assert(supported(isa), "GEMM variant ", gemmIsaName(isa),
               " is not supported by this CPU");
    switch (isa) {
#ifdef LSD_GEMM_X86
      case GemmIsa::Avx512:
        return gemmAvx512(args);
      case GemmIsa::Avx2:
        return gemmAvx2(args);
#endif
      default:
        return gemmGeneric(args);
    }
}

void
gemm(const GemmArgs &args)
{
    gemm(args, gemmIsa());
}

GemmIsa
gemmIsa()
{
    static const GemmIsa best = supportedGemmIsas().back();
    return best;
}

std::vector<GemmIsa>
supportedGemmIsas()
{
    std::vector<GemmIsa> out;
    for (GemmIsa isa : {GemmIsa::Generic, GemmIsa::Avx2, GemmIsa::Avx512})
        if (supported(isa))
            out.push_back(isa);
    return out;
}

const char *
gemmIsaName(GemmIsa isa)
{
    switch (isa) {
      case GemmIsa::Avx2:
        return "avx2";
      case GemmIsa::Avx512:
        return "avx512f";
      default:
        return "generic";
    }
}

} // namespace axe
} // namespace lsdgnn
