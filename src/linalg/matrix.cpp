#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace repro {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::RandomNormal(std::size_t rows, std::size_t cols, Rng& rng,
                            float stddev) {
  Matrix m(rows, cols);
  rng.FillNormal(m.data(), m.size(), stddev);
  return m;
}

Matrix Matrix::RandomUniform(std::size_t rows, std::size_t cols, Rng& rng,
                             float lo, float hi) {
  Matrix m(rows, cols);
  rng.FillUniform(m.data(), m.size(), lo, hi);
  return m;
}

void Matrix::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::Transposed() const {
  // In 16 x 16 blocks, each destination row innermost: a block's 16 source
  // rows stay in cache while its destination rows are written in order,
  // where a row-by-row walk strides down a destination column per element.
  constexpr std::size_t kBlock = 16;
  Matrix t(cols_, rows_);
  for (std::size_t r0 = 0; r0 < rows_; r0 += kBlock) {
    const std::size_t r1 = std::min(rows_, r0 + kBlock);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kBlock) {
      for (std::size_t c = c0; c < std::min(cols_, c0 + kBlock); ++c) {
        for (std::size_t r = r0; r < r1; ++r) t(c, r) = (*this)(r, c);
      }
    }
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  REPRO_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  REPRO_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  REPRO_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "MaxAbsDiff shape mismatch: %zux%zu vs %zux%zu", a.rows(),
                a.cols(), b.rows(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a.data()[i]) - b.data()[i]));
  }
  return m;
}

bool AllClose(const Matrix& a, const Matrix& b, double rtol, double atol) {
  double scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(b.data()[i])));
  }
  return MaxAbsDiff(a, b) <= atol + rtol * scale;
}

}  // namespace repro
