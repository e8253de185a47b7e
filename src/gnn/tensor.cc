#include "tensor.hh"

#include <algorithm>
#include <cmath>

#include "axe/gemm_kernel.hh"

namespace lsdgnn {
namespace gnn {

Matrix
Matrix::random(std::size_t rows, std::size_t cols, Rng &rng, float scale)
{
    Matrix m(rows, cols);
    for (float &v : m.data_)
        v = static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * scale);
    return m;
}

std::span<float>
Matrix::row(std::size_t r)
{
    lsd_assert(r < rows_, "row index out of range");
    return std::span<float>(data_).subspan(r * cols_, cols_);
}

std::span<const float>
Matrix::row(std::size_t r) const
{
    lsd_assert(r < rows_, "row index out of range");
    return std::span<const float>(data_).subspan(r * cols_, cols_);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    lsd_assert(a.cols() == b.rows(), "matmul shape mismatch: ",
               a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    Matrix out(a.rows(), b.cols());
    axe::GemmArgs args;
    args.m = static_cast<std::uint32_t>(a.rows());
    args.k = static_cast<std::uint32_t>(a.cols());
    args.n = static_cast<std::uint32_t>(b.cols());
    args.first = {a.data().data(), a.cols(), b.data().data(), b.cols()};
    args.c = out.data().data();
    args.ldc = out.cols();
    axe::gemm(args);
    return out;
}

void
addBias(Matrix &m, std::span<const float> bias)
{
    lsd_assert(bias.size() == m.cols(), "bias length mismatch");
    for (std::size_t i = 0; i < m.rows(); ++i) {
        auto row = m.row(i);
        for (std::size_t j = 0; j < m.cols(); ++j)
            row[j] += bias[j];
    }
}

void
relu(Matrix &m)
{
    for (float &v : m.data())
        v = std::max(v, 0.0f);
}

void
tanhInplace(Matrix &m)
{
    for (float &v : m.data())
        v = std::tanh(v);
}

void
l2NormalizeRows(Matrix &m)
{
    for (std::size_t i = 0; i < m.rows(); ++i) {
        auto row = m.row(i);
        double norm = 0.0;
        for (float v : row)
            norm += static_cast<double>(v) * v;
        norm = std::sqrt(norm);
        if (norm < 1e-12)
            continue;
        for (float &v : row)
            v = static_cast<float>(v / norm);
    }
}

Matrix
elementwiseMax(const Matrix &a, const Matrix &b)
{
    lsd_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "elementwiseMax shape mismatch");
    Matrix out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            out.at(i, j) = std::max(a.at(i, j), b.at(i, j));
    return out;
}

float
cosine(std::span<const float> a, std::span<const float> b)
{
    lsd_assert(a.size() == b.size(), "cosine length mismatch");
    double dot = 0, na = 0, nb = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    const double denom = std::sqrt(na) * std::sqrt(nb);
    return denom < 1e-12 ? 0.0f : static_cast<float>(dot / denom);
}

float
sigmoid(float x)
{
    if (x >= 0) {
        const float z = std::exp(-x);
        return 1.0f / (1.0f + z);
    }
    const float z = std::exp(x);
    return z / (1.0f + z);
}

} // namespace gnn
} // namespace lsdgnn
