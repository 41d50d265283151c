// Small dense 2-D / 3-D arrays with bounds-checked indexing, used for the
// scheduler decision tensors (x, b, y in the paper's notation).
#pragma once

#include <span>
#include <vector>

#include "birp/util/check.hpp"

namespace birp::util {

template <typename T>
class Grid2 {
 public:
  Grid2() = default;
  Grid2(int rows, int cols, T fill = T{})
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              fill) {
    check(rows >= 0 && cols >= 0, "Grid2: negative dimension");
  }

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

  [[nodiscard]] T& operator()(int r, int c) { return data_[index(r, c)]; }
  [[nodiscard]] const T& operator()(int r, int c) const {
    return data_[index(r, c)];
  }

  /// Row r as one contiguous run of cols() values.
  [[nodiscard]] std::span<T> row(int r) {
    return {&(*this)(r, 0), static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const T> row(int r) const {
    return {&(*this)(r, 0), static_cast<std::size_t>(cols_)};
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }
  [[nodiscard]] const std::vector<T>& raw() const noexcept { return data_; }

 private:
  [[nodiscard]] std::size_t index(int r, int c) const {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_, "Grid2: out of range");
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

template <typename T>
class Grid3 {
 public:
  Grid3() = default;
  Grid3(int d0, int d1, int d2, T fill = T{})
      : d0_(d0), d1_(d1), d2_(d2),
        data_(static_cast<std::size_t>(d0) * static_cast<std::size_t>(d1) *
                  static_cast<std::size_t>(d2),
              fill) {
    check(d0 >= 0 && d1 >= 0 && d2 >= 0, "Grid3: negative dimension");
  }

  [[nodiscard]] int dim0() const noexcept { return d0_; }
  [[nodiscard]] int dim1() const noexcept { return d1_; }
  [[nodiscard]] int dim2() const noexcept { return d2_; }

  [[nodiscard]] T& operator()(int a, int b, int c) {
    return data_[index(a, b, c)];
  }
  [[nodiscard]] const T& operator()(int a, int b, int c) const {
    return data_[index(a, b, c)];
  }

  /// The dim2() values of (a, b), contiguous (the last index is fastest).
  [[nodiscard]] std::span<T> run(int a, int b) {
    return {&(*this)(a, b, 0), static_cast<std::size_t>(d2_)};
  }
  [[nodiscard]] std::span<const T> run(int a, int b) const {
    return {&(*this)(a, b, 0), static_cast<std::size_t>(d2_)};
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }
  [[nodiscard]] const std::vector<T>& raw() const noexcept { return data_; }

 private:
  [[nodiscard]] std::size_t index(int a, int b, int c) const {
    check(a >= 0 && a < d0_ && b >= 0 && b < d1_ && c >= 0 && c < d2_,
          "Grid3: out of range");
    return (static_cast<std::size_t>(a) * static_cast<std::size_t>(d1_) +
            static_cast<std::size_t>(b)) *
               static_cast<std::size_t>(d2_) +
           static_cast<std::size_t>(c);
  }

  int d0_ = 0;
  int d1_ = 0;
  int d2_ = 0;
  std::vector<T> data_;
};

}  // namespace birp::util
