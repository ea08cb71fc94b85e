#ifndef UGUIDE_COMMON_ID_BITMAP_H_
#define UGUIDE_COMMON_ID_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace uguide {

/// \brief A dense set over the ids [0, size), one bit per id.
///
/// Bit i of word i/64 is id i's flag. Bits past `size` stay zero, so word
/// scans never yield phantom ids. ForEach visits set bits only, ascending,
/// skipping empty regions a word (64 ids) at a time. The violation graph's
/// active flags and the FD strategies' coverage sets are IdBitmaps keyed by
/// FdId / CellId.
class IdBitmap {
 public:
  IdBitmap() = default;

  /// `size` ids, none set.
  explicit IdBitmap(int size) : size_(size) {
    UGUIDE_CHECK(size >= 0);
    words_.assign((static_cast<size_t>(size) + 63) / 64, 0);
  }

  /// `size` ids, all set.
  static IdBitmap AllSet(int size) {
    IdBitmap bitmap(size);
    for (uint64_t& word : bitmap.words_) word = ~uint64_t{0};
    if (size % 64 != 0 && !bitmap.words_.empty()) {
      bitmap.words_.back() = (uint64_t{1} << (size % 64)) - 1;
    }
    return bitmap;
  }

  int size() const { return size_; }

  bool Test(int i) const {
    UGUIDE_DCHECK(i >= 0 && i < size_);
    return (words_[static_cast<size_t>(i) >> 6] >>
            (static_cast<size_t>(i) & 63)) &
           1u;
  }

  void Set(int i) {
    UGUIDE_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i) >> 6] |= uint64_t{1}
                                            << (static_cast<size_t>(i) & 63);
  }

  void Clear(int i) {
    UGUIDE_DCHECK(i >= 0 && i < size_);
    words_[static_cast<size_t>(i) >> 6] &=
        ~(uint64_t{1} << (static_cast<size_t>(i) & 63));
  }

  /// Calls `fn(int)` for every set id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64) + __builtin_ctzll(bits));
      }
    }
  }

  /// Payload bytes (the MemoryBudget accounting convention).
  size_t ApproxBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  int size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace uguide

#endif  // UGUIDE_COMMON_ID_BITMAP_H_
