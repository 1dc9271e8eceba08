// Aligned heap storage for matrix data and call scratch.
//
// GEMM kernels issue vector loads/stores that benefit from (and on some
// targets require) alignment beyond what operator new guarantees, so all
// matrix storage in the library goes through this RAII buffer, and the
// per-call scratch of the executors through a Workspace built on it.
#pragma once

#include <cstddef>
#include <new>

namespace autogemm::common {

/// Default alignment for matrix storage: one cache line, which also covers
/// the widest SIMD vector we model (SVE-512 = 64 bytes).
inline constexpr std::size_t kDefaultAlignment = 64;

/// Tag selecting uninitialized contents: callers that overwrite every
/// element (packing) skip the zero-fill instead of writing the buffer
/// twice. PackedA/PackedB use this and zero only their padding edges.
struct uninitialized_t {
  explicit uninitialized_t() = default;
};
inline constexpr uninitialized_t kUninitialized{};

/// Owning, aligned, zero-initialized float buffer.
///
/// Move-only. The buffer never shrinks or grows; callers size it up front.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  /// Allocates `count` floats aligned to `alignment` bytes, zero-filled.
  explicit AlignedBuffer(std::size_t count,
                         std::size_t alignment = kDefaultAlignment);
  /// As above but with indeterminate contents (no zero-fill).
  AlignedBuffer(uninitialized_t, std::size_t count,
                std::size_t alignment = kDefaultAlignment);
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  float* data() noexcept { return data_; }
  const float* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  const float& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  float* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Cache-line-aligned regions laid out before a Workspace grows: add()
/// returns a region's byte offset, `bytes` is the total.
struct WorkspaceLayout {
  std::size_t bytes = 0;
  template <class T>
  std::size_t add(std::size_t count) {
    const std::size_t at = bytes;
    bytes += (count * sizeof(T) + kDefaultAlignment - 1) / kDefaultAlignment *
             kDefaultAlignment;
    return at;
  }
};

/// A call's scratch: one aligned buffer that grows to the largest layout
/// it has served and stays there, so a warm call allocates nothing.
/// Executors grow it once, before writing any output; a failed grow throws
/// std::bad_alloc (through AlignedBuffer and its failpoint) and leaves it
/// empty. Contents do not survive a grow. One caller at a time.
class Workspace {
 public:
  void grow(std::size_t bytes);
  /// Starts the lifetime of `count` default-initialized T at byte `offset`
  /// (a trivial T is left uninitialized) and returns the first.
  template <class T>
  T* region(std::size_t offset, std::size_t count) noexcept {
    return new (reinterpret_cast<char*>(buf_.data()) + offset) T[count];
  }

 private:
  AlignedBuffer buf_;
};

}  // namespace autogemm::common
