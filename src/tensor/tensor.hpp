#pragma once

// Dense row-major float32 tensor. The whole library standardizes on the NCHW
// layout for 4-d tensors (batch, channels, height, width); lower-rank tensors
// are used for weights, flattened buffers and im2row matrices.
//
// Element accessors are unchecked by default. Building with
// -DPARPDE_CHECKED_TENSOR=ON (the ASan leg of tools/check.sh does) makes
// operator[] and every at() overload verify rank and index ranges, throwing
// std::out_of_range with the offending index and shape.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace parpde {

using Shape = std::vector<std::int64_t>;

// Number of elements of a shape (product of extents).
std::int64_t numel(const Shape& shape);

// Human-readable "[2, 4, 64, 64]".
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  // Allocates zero-initialized storage of the given shape.
  explicit Tensor(Shape shape);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  // Takes ownership of `values`; size must match the shape.
  static Tensor from(Shape shape, std::vector<float> values);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] int ndim() const noexcept { return static_cast<int>(shape_.size()); }
  [[nodiscard]] std::int64_t dim(int i) const { return shape_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<float> values() noexcept { return data_; }
  [[nodiscard]] std::span<const float> values() const noexcept { return data_; }

  float& operator[](std::int64_t i) {
    check_flat(i);
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    check_flat(i);
    return data_[static_cast<std::size_t>(i)];
  }

  // 4-d NCHW accessors (bounds unchecked unless PARPDE_CHECKED_TENSOR).
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    check4(n, c, h, w);
    return data_[static_cast<std::size_t>(offset4(n, c, h, w))];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    check4(n, c, h, w);
    return data_[static_cast<std::size_t>(offset4(n, c, h, w))];
  }

  // 3-d CHW accessors (single-sample fields).
  float& at(std::int64_t c, std::int64_t h, std::int64_t w) {
    check3(c, h, w);
    return data_[static_cast<std::size_t>(offset3(c, h, w))];
  }
  float at(std::int64_t c, std::int64_t h, std::int64_t w) const {
    check3(c, h, w);
    return data_[static_cast<std::size_t>(offset3(c, h, w))];
  }

  // 2-d accessors (matrices).
  float& at(std::int64_t r, std::int64_t c) {
    check2(r, c);
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float at(std::int64_t r, std::int64_t c) const {
    check2(r, c);
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  void fill(float value);

  // Returns a copy with a new shape; element count must be preserved.
  [[nodiscard]] Tensor reshaped(Shape shape) const;

  // In-place reinterpretation of the shape (no data movement).
  void reshape(Shape shape);

 private:
  [[nodiscard]] std::int64_t offset4(std::int64_t n, std::int64_t c,
                                     std::int64_t h, std::int64_t w) const {
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }
  [[nodiscard]] std::int64_t offset3(std::int64_t c, std::int64_t h,
                                     std::int64_t w) const {
    return (c * shape_[1] + h) * shape_[2] + w;
  }

#ifdef PARPDE_CHECKED_TENSOR
  void check_rank(int want) const {
    if (ndim() != want) {
      throw std::out_of_range("Tensor: " + std::to_string(want) +
                              "-d accessor on tensor of shape " +
                              shape_to_string(shape_));
    }
  }
  void check_axis(std::int64_t i, int axis) const {
    if (i < 0 || i >= shape_[static_cast<std::size_t>(axis)]) {
      throw std::out_of_range(
          "Tensor: index " + std::to_string(i) + " out of range for axis " +
          std::to_string(axis) + " of shape " + shape_to_string(shape_));
    }
  }
  void check_flat(std::int64_t i) const {
    if (i < 0 || i >= size()) {
      throw std::out_of_range("Tensor: flat index " + std::to_string(i) +
                              " out of range for shape " +
                              shape_to_string(shape_));
    }
  }
  void check2(std::int64_t r, std::int64_t c) const {
    check_rank(2);
    check_axis(r, 0);
    check_axis(c, 1);
  }
  void check3(std::int64_t c, std::int64_t h, std::int64_t w) const {
    check_rank(3);
    check_axis(c, 0);
    check_axis(h, 1);
    check_axis(w, 2);
  }
  void check4(std::int64_t n, std::int64_t c, std::int64_t h,
              std::int64_t w) const {
    check_rank(4);
    check_axis(n, 0);
    check_axis(c, 1);
    check_axis(h, 2);
    check_axis(w, 3);
  }
#else
  // Checked builds only; zero-cost no-ops otherwise.
  void check_flat(std::int64_t) const noexcept {}
  void check2(std::int64_t, std::int64_t) const noexcept {}
  void check3(std::int64_t, std::int64_t, std::int64_t) const noexcept {}
  void check4(std::int64_t, std::int64_t, std::int64_t,
              std::int64_t) const noexcept {}
#endif

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace parpde
