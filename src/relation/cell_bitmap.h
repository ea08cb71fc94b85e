#ifndef UGUIDE_RELATION_CELL_BITMAP_H_
#define UGUIDE_RELATION_CELL_BITMAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/span.h"
#include "relation/relation.h"

namespace uguide {

/// \brief A dense set of cells over a rows x cols grid, one bit per cell.
///
/// Cell (r, c) is bit `r * cols + c` of a row-major array of 64-bit words,
/// so ascending bit order is exactly `Cell::operator<` order and iterating
/// set bits yields cells already sorted. A Tax table of 10 000 rows x 16
/// attributes takes 20 KB, where a hash set of the same cells costs one
/// heap node per member.
///
/// Shape rule: `Test` answers false for any cell outside the grid
/// (negative or past either bound) instead of aliasing (r, cols) onto
/// (r + 1, 0); `Set` CHECKs that its cell is in range. Bits past
/// rows * cols are always zero, so word-wise counts never see phantom
/// cells.
class CellBitmap {
 public:
  /// An empty 0 x 0 grid: contains nothing.
  CellBitmap() = default;

  CellBitmap(TupleId rows, int cols) : rows_(rows), cols_(cols) {
    UGUIDE_CHECK(rows >= 0 && cols >= 0);
    words_.assign((NumBits() + 63) / 64, 0);
  }

  TupleId rows() const { return rows_; }
  int cols() const { return cols_; }

  bool Test(const Cell& cell) const {
    if (!InRange(cell)) return false;
    const size_t bit = BitOf(cell);
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  void Set(const Cell& cell) {
    UGUIDE_CHECK(InRange(cell));
    const size_t bit = BitOf(cell);
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  /// Sets cell (r, col) for every r in `rows`; returns how many of them
  /// were not set before. `col` and every row must be in range.
  size_t InsertColumn(int col, ConstSpan<TupleId> rows) {
    UGUIDE_CHECK(col >= 0 && col < cols_);
    const size_t stride = static_cast<size_t>(cols_);
    size_t inserted = 0;
    for (TupleId r : rows) {
      UGUIDE_CHECK(static_cast<size_t>(r) < static_cast<size_t>(rows_));
      const size_t bit = static_cast<size_t>(r) * stride +
                         static_cast<size_t>(col);
      uint64_t& word = words_[bit >> 6];
      const uint64_t mask = uint64_t{1} << (bit & 63);
      inserted += (word & mask) == 0 ? 1 : 0;
      word |= mask;
    }
    return inserted;
  }

  /// True iff some cell of `row` is set; false for an out-of-range row.
  bool AnyInRow(TupleId row) const {
    for (int col = 0; col < cols_; ++col) {
      if (Test(Cell{row, col})) return true;
    }
    return false;
  }

  /// Number of set cells.
  size_t Count() const {
    size_t count = 0;
    for (uint64_t w : words_) {
      count += static_cast<size_t>(__builtin_popcountll(w));
    }
    return count;
  }

  /// |this & other|. The grids must have the same column count, so equal
  /// bit indices name the same cell; row counts may differ (a live epoch
  /// appends rows) and only the common rows can intersect.
  size_t AndCount(const CellBitmap& other) const {
    UGUIDE_CHECK_EQ(cols_, other.cols_);
    const size_t n = std::min(words_.size(), other.words_.size());
    size_t count = 0;
    for (size_t w = 0; w < n; ++w) {
      count += static_cast<size_t>(
          __builtin_popcountll(words_[w] & other.words_[w]));
    }
    return count;
  }

  /// All set cells in row-major order (ascending bit index).
  std::vector<Cell> ToVector() const {
    std::vector<Cell> out;
    out.reserve(Count());
    const size_t cols = static_cast<size_t>(cols_);
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const size_t bit =
            (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
        out.push_back(Cell{static_cast<TupleId>(bit / cols),
                           static_cast<int>(bit % cols)});
      }
    }
    return out;
  }

 private:
  bool InRange(const Cell& cell) const {
    return cell.row >= 0 && cell.row < rows_ && cell.col >= 0 &&
           cell.col < cols_;
  }
  size_t NumBits() const {
    return static_cast<size_t>(rows_) * static_cast<size_t>(cols_);
  }
  size_t BitOf(const Cell& cell) const {
    return static_cast<size_t>(cell.row) * static_cast<size_t>(cols_) +
           static_cast<size_t>(cell.col);
  }

  TupleId rows_ = 0;
  int cols_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace uguide

#endif  // UGUIDE_RELATION_CELL_BITMAP_H_
