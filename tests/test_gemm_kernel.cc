/**
 * @file
 * Bit-identity of the GEMM kernel against the scalar loop it replaced.
 *
 * The reference below is that loop, zero skip included. Every variant
 * the CPU can run must match it bit for bit over a grid of shapes that
 * covers full register tiles, every column-tail width and single rows
 * and columns, on inputs that contain +0 and -0. A fused multiply-add
 * anywhere in the kernel rounds once instead of twice and fails here.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "axe/gemm.hh"
#include "axe/gemm_kernel.hh"
#include "common/rng.hh"
#include "gnn/tensor.hh"

namespace lsdgnn {
namespace axe {
namespace {

/** The scalar i-k-j loop the kernel replaced, with its zero skip. */
std::vector<float>
reference(const std::vector<float> &a, const std::vector<float> &b,
          std::size_t m, std::size_t k, std::size_t n)
{
    std::vector<float> c(m * n, 0.0f);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float aik = a[i * k + kk];
            if (aik == 0.0f)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                c[i * n + j] += aik * b[kk * n + j];
        }
    return c;
}

/** Values in [-0.5, 0.5) with every 5th a +0 and every 7th a -0. */
std::vector<float>
values(std::size_t count, Rng &rng)
{
    std::vector<float> v(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = i % 7 == 3   ? -0.0f
               : i % 5 == 1 ? 0.0f
                            : static_cast<float>(rng.nextDouble() - 0.5);
    return v;
}

bool
sameBits(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(GemmKernel, EveryVariantMatchesScalarLoopBitwise)
{
    const std::vector<std::uint32_t> ms = {1, 3, 4, 5, 63, 64, 65, 640};
    const std::vector<std::uint32_t> ks = {1, 7, 72, 256};
    const std::vector<std::uint32_t> ns = {1,  15, 16, 17, 63,
                                           64, 65, 77, 256};
    Rng rng(5);
    for (const std::uint32_t m : ms)
        for (const std::uint32_t k : ks)
            for (const std::uint32_t n : ns) {
                const auto a = values(std::size_t{m} * k, rng);
                const auto b = values(std::size_t{k} * n, rng);
                const auto want = reference(a, b, m, k, n);
                for (const GemmIsa isa : supportedGemmIsas()) {
                    std::vector<float> c(want.size(), 1.0f);
                    GemmArgs args;
                    args.m = m;
                    args.k = k;
                    args.n = n;
                    args.first = {a.data(), k, b.data(), n};
                    args.c = c.data();
                    args.ldc = n;
                    gemm(args, isa);
                    ASSERT_TRUE(sameBits(c, want)) << gemmIsaName(isa)
                        << " " << m << "x" << k << "x" << n;
                }
            }
}

TEST(GemmKernel, FusedEpilogueMatchesUnfusedSteps)
{
    // The GraphSAGE combine: relu((x W1 + y W2) + bias) on the top-left
    // rows x width corner of row-major operands with wider rows.
    Rng rng(9);
    for (const std::uint32_t width : {1u, 13u, 64u, 77u, 100u}) {
        const std::size_t m = 37, k = 40, lda = 45, ldb = 120;
        const auto x = values(m * lda, rng), y = values(m * lda, rng);
        const auto w1 = values(k * ldb, rng), w2 = values(k * ldb, rng);
        const auto bias = values(ldb, rng);

        // The unfused steps on dense copies of the corners.
        const auto corner = [](const std::vector<float> &v,
                               std::size_t rows, std::size_t cols,
                               std::size_t ld) {
            std::vector<float> out(rows * cols);
            for (std::size_t r = 0; r < rows; ++r)
                std::memcpy(&out[r * cols], &v[r * ld],
                            cols * sizeof(float));
            return out;
        };
        auto want = reference(corner(x, m, k, lda),
                              corner(w1, k, width, ldb), m, k, width);
        const auto second = reference(corner(y, m, k, lda),
                                      corner(w2, k, width, ldb), m, k,
                                      width);
        for (std::size_t i = 0; i < want.size(); ++i) {
            want[i] += second[i];
            want[i] += bias[i % width];
            want[i] = std::max(want[i], 0.0f);
        }

        for (const GemmIsa isa : supportedGemmIsas()) {
            std::vector<float> c(m * width, 1.0f);
            GemmArgs args;
            args.m = m;
            args.k = k;
            args.n = width;
            args.first = {x.data(), lda, w1.data(), ldb};
            args.second = {y.data(), lda, w2.data(), ldb};
            args.bias = bias.data();
            args.relu = true;
            args.c = c.data();
            args.ldc = width;
            gemm(args, isa);
            ASSERT_TRUE(sameBits(c, want))
                << gemmIsaName(isa) << " width " << width;
        }
    }
}

TEST(GemmKernel, EngineAndTensorMatmulRunTheKernel)
{
    Rng rng(3);
    const std::uint32_t m = 65, k = 72, n = 77;
    const auto a = values(std::size_t{m} * k, rng);
    const auto b = values(std::size_t{k} * n, rng);
    const auto want = reference(a, b, m, k, n);

    std::vector<float> c(want.size());
    const GemmEngine engine;
    const ComputeResult timed = engine.matmul(a, b, c, m, k, n);
    EXPECT_TRUE(sameBits(c, want));
    EXPECT_EQ(timed.cycles, engine.timing(m, k, n).cycles);

    gnn::Matrix ma(m, k), mb(k, n);
    std::copy(a.begin(), a.end(), ma.data().begin());
    std::copy(b.begin(), b.end(), mb.data().begin());
    const gnn::Matrix mc = gnn::matmul(ma, mb);
    EXPECT_TRUE(sameBits({mc.data().begin(), mc.data().end()}, want));
}

TEST(GemmKernel, VariantsIncludeGenericAndTheChosenOne)
{
    const auto isas = supportedGemmIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), GemmIsa::Generic);
    EXPECT_EQ(isas.back(), gemmIsa());
}

} // namespace
} // namespace axe
} // namespace lsdgnn
