#include "common/aligned_buffer.hpp"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/failpoint.hpp"

namespace autogemm::common {

AlignedBuffer::AlignedBuffer(uninitialized_t, std::size_t count,
                             std::size_t alignment)
    : size_(count) {
  if (count == 0) return;
  // std::aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t bytes = count * sizeof(float);
  const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
  if (failpoint::should_fail("alloc.aligned_buffer")) throw std::bad_alloc{};
  data_ = static_cast<float*>(std::aligned_alloc(alignment, rounded));
  if (data_ == nullptr) throw std::bad_alloc{};
}

AlignedBuffer::AlignedBuffer(std::size_t count, std::size_t alignment)
    : AlignedBuffer(kUninitialized, count, alignment) {
  if (data_ == nullptr) return;
  const std::size_t bytes = count * sizeof(float);
  std::memset(data_, 0, (bytes + alignment - 1) / alignment * alignment);
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void Workspace::grow(std::size_t bytes) {
  if (bytes <= buf_.size() * sizeof(float)) return;
  buf_ = AlignedBuffer();  // never hold the old and the new buffer at once
  buf_ = AlignedBuffer(kUninitialized,
                       (bytes + sizeof(float) - 1) / sizeof(float));
}

}  // namespace autogemm::common
