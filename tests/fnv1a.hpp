// 64-bit FNV-1a digest shared by the golden-digest tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace birp::testutil {

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void range(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace birp::testutil
