// Sorted flat-vector bin storage for LatencySketch.
//
// The sketch's bins were a std::map<int32, uint64> — one heap node and three
// pointers per bin, a pointer-chasing tree walk per merge touch. Per-flow
// sketches hold a few dozen bins and the collection tier merges into them
// once per record, so the container is squarely on the ingest hot path.
//
// A sorted vector of (index, count) pairs keeps the same ordered semantics
// (deterministic iteration, lowest-first collapse) with contiguous memory:
// lookups are a binary search over cache-resident pairs, and the common
// merge pattern — wire bins arrive in ascending index order into a sketch
// whose range they already overlap — hits either the append fast path or a
// short search. Inserting into the middle memmoves the tail, but new indexes
// are rare in steady state (a flow's latency range stabilizes quickly) and
// the arrays are small.
//
// Deliberately NOT a dense offset-indexed array (the classic DDSketch dense
// store): wire sketches may carry arbitrary int32 bin indexes, and a dense
// span allocation would let a hostile peer request gigabytes with two bins.
// The flat vector's footprint is bounded by bin *count*, which the wire
// format already guards.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rlir::common {

class BinStore {
 public:
  using value_type = std::pair<std::int32_t, std::uint64_t>;
  using const_iterator = std::vector<value_type>::const_iterator;

  BinStore() = default;

  /// Adds `count` to bin `index`, creating the bin if absent.
  void add(std::int32_t index, std::uint64_t count) {
    // Append / re-touch-highest fast paths: ascending-index merges (the wire
    // order) and repeated observations near a flow's steady-state latency.
    if (entries_.empty() || entries_.back().first < index) {
      entries_.emplace_back(index, count);
      return;
    }
    if (entries_.back().first == index) {
      entries_.back().second += count;
      return;
    }
    const auto it = lower_bound(index);
    if (it != entries_.end() && it->first == index) {
      it->second += count;
    } else {
      entries_.insert(it, value_type{index, count});
    }
  }

  /// Folds the lowest bin into its neighbor above — the budget-collapse
  /// step. Precondition: size() >= 2.
  void fold_lowest() {
    entries_[1].second += entries_[0].second;
    entries_.erase(entries_.begin());
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  /// Count of bin `index`; throws std::out_of_range if the bin is absent
  /// (mirrors the std::map::at contract this container replaced).
  [[nodiscard]] std::uint64_t at(std::int32_t index) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), index,
        [](const value_type& e, std::int32_t i) { return e.first < i; });
    if (it == entries_.end() || it->first != index) {
      throw std::out_of_range("BinStore::at: no such bin");
    }
    return it->second;
  }

  /// Allocated footprint of the bin array (capacity, not size — what the
  /// process actually pays).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return entries_.capacity() * sizeof(value_type);
  }

  friend bool operator==(const BinStore& a, const BinStore& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const BinStore& a, const BinStore& b) { return !(a == b); }

  // Equality against the std::map representation, so oracle tests can state
  // expectations in the container the formula naturally builds.
  friend bool operator==(const BinStore& a, const std::map<std::int32_t, std::uint64_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const value_type& x, const auto& y) {
                        return x.first == y.first && x.second == y.second;
                      });
  }
  friend bool operator==(const std::map<std::int32_t, std::uint64_t>& a, const BinStore& b) {
    return b == a;
  }
  friend bool operator!=(const BinStore& a, const std::map<std::int32_t, std::uint64_t>& b) {
    return !(a == b);
  }
  friend bool operator!=(const std::map<std::int32_t, std::uint64_t>& a, const BinStore& b) {
    return !(b == a);
  }

 private:
  /// std::lower_bound without the data-dependent branch: each halving step
  /// is a conditional move, not a jump the CPU mispredicts half the time.
  /// Merging a record into a wide aggregate (a link's or a window's union,
  /// hundreds of bins) costs a search per bin, and the mispredicts were
  /// most of it: a ~10-bin record merged into a 254-bin union took ~600 ns
  /// with std::lower_bound and takes ~320 ns. Precondition: not empty.
  [[nodiscard]] std::vector<value_type>::iterator lower_bound(std::int32_t index) {
    value_type* base = entries_.data();
    std::size_t n = entries_.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = base[half].first < index ? base + half : base;
      n -= half;
    }
    return entries_.begin() + ((base - entries_.data()) + (base->first < index ? 1 : 0));
  }

  std::vector<value_type> entries_;
};

}  // namespace rlir::common
