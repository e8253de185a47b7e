/**
 * @file
 * Minimal dense tensor support for the GNN-NN stage.
 *
 * LSD-GNN's NN stage is ordinary dense math (the sparse work happened
 * during sampling), so a small row-major matrix type with the handful
 * of kernels GraphSAGE/DSSM need is sufficient — and keeps the FLOP
 * accounting (used by the Fig. 3 end-to-end model) exact.
 */

#ifndef LSDGNN_GNN_TENSOR_HH
#define LSDGNN_GNN_TENSOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lsdgnn {
namespace gnn {

/**
 * Row-major float32 matrix.
 */
class Matrix
{
  public:
    Matrix() : rows_(0), cols_(0) {}

    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    static Matrix random(std::size_t rows, std::size_t cols, Rng &rng,
                         float scale);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    float &
    at(std::size_t r, std::size_t c)
    {
        lsd_assert(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    float
    at(std::size_t r, std::size_t c) const
    {
        lsd_assert(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    std::span<float> row(std::size_t r);
    std::span<const float> row(std::size_t r) const;

    std::span<const float> data() const { return data_; }
    std::span<float> data() { return data_; }

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<float> data_;
};

/**
 * out = a * b on the one GEMM kernel (axe/gemm_kernel.hh). FLOPs:
 * 2*M*N*K.
 */
Matrix matmul(const Matrix &a, const Matrix &b);

/** In-place row-broadcast bias add. */
void addBias(Matrix &m, std::span<const float> bias);

/** In-place ReLU. */
void relu(Matrix &m);

/** In-place tanh. */
void tanhInplace(Matrix &m);

/** Row-wise L2 normalization (used before cosine similarity). */
void l2NormalizeRows(Matrix &m);

/** Element-wise max of two equal-shape matrices. */
Matrix elementwiseMax(const Matrix &a, const Matrix &b);

/** Cosine similarity of two equal-length vectors. */
float cosine(std::span<const float> a, std::span<const float> b);

/** Numerically stable logistic function. */
float sigmoid(float x);

/** FLOP count of one matmul. */
constexpr std::uint64_t
matmulFlops(std::uint64_t m, std::uint64_t n, std::uint64_t k)
{
    return 2 * m * n * k;
}

} // namespace gnn
} // namespace lsdgnn

#endif // LSDGNN_GNN_TENSOR_HH
