// Tracks simulated resident memory by category, mirroring the paper's
// Figure 3(a)/11 breakdown: graph-structure copies vs. job-specific data vs.
// GraphM's chunk tables.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace graphm::sim {

enum class MemoryCategory : int {
  kGraphStructure = 0,  // partition buffers (shared or per-job copies)
  kJobSpecific = 1,     // vertex value arrays, frontiers, bitmaps
  kChunkTables = 2,     // GraphM's Set_c / chunk_table metadata and the
                        // store's per-partition run index (once per engine)
  kOther = 3,
};

inline constexpr int kNumMemoryCategories = 4;

class MemoryTracker {
 public:
  void allocate(MemoryCategory cat, std::uint64_t bytes);
  void release(MemoryCategory cat, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t current(MemoryCategory cat) const;
  [[nodiscard]] std::uint64_t peak(MemoryCategory cat) const;
  [[nodiscard]] std::uint64_t current_total() const;
  [[nodiscard]] std::uint64_t peak_total() const;

  void reset();

 private:
  struct Counter {
    std::atomic<std::uint64_t> current{0};
    std::atomic<std::uint64_t> peak{0};
  };
  std::array<Counter, kNumMemoryCategories> by_category_{};
  Counter total_{};
};

/// RAII registration of a tracked allocation.
class TrackedAllocation {
 public:
  TrackedAllocation() = default;
  TrackedAllocation(MemoryTracker* tracker, MemoryCategory cat, std::uint64_t bytes)
      : tracker_(tracker), cat_(cat), bytes_(bytes) {
    if (tracker_ != nullptr) tracker_->allocate(cat_, bytes_);
  }
  TrackedAllocation(const TrackedAllocation&) = delete;
  TrackedAllocation& operator=(const TrackedAllocation&) = delete;
  TrackedAllocation(TrackedAllocation&& other) noexcept { swap(other); }
  TrackedAllocation& operator=(TrackedAllocation&& other) noexcept {
    if (this != &other) {
      release_now();
      swap(other);
    }
    return *this;
  }
  ~TrackedAllocation() { release_now(); }

  void release_now() {
    if (tracker_ != nullptr) tracker_->release(cat_, bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

 private:
  void swap(TrackedAllocation& other) {
    std::swap(tracker_, other.tracker_);
    std::swap(cat_, other.cat_);
    std::swap(bytes_, other.bytes_);
  }
  MemoryTracker* tracker_ = nullptr;
  MemoryCategory cat_ = MemoryCategory::kOther;
  std::uint64_t bytes_ = 0;
};

}  // namespace graphm::sim
