//===- support/IdIndex.h - Flat 64-bit id to dense index table ---*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressing table from arbitrary 64-bit ids to dense indices
/// 0, 1, 2, ... in first-seen order, for keeping per-id state in a
/// contiguous vector. Text traces may name threads and locks by any 64-bit
/// value, so ids are hashed, never used as indices directly. Slots hold
/// the full id: lookups are exact.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SUPPORT_IDINDEX_H
#define DLF_SUPPORT_IDINDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlf {

class IdIndex {
public:
  static constexpr uint32_t None = UINT32_MAX;

  /// The index of \p Id, or None.
  uint32_t find(uint64_t Id) const {
    if (Slots.empty())
      return None;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(Id, Mask);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.IndexPlusOne == 0)
        return None;
      if (S.Id == Id)
        return S.IndexPlusOne - 1;
    }
  }

  /// The index of \p Id, assigning the next one (size() before the call)
  /// if \p Id is new; \p Added says which.
  uint32_t findOrAdd(uint64_t Id, bool &Added) {
    if (2 * (static_cast<size_t>(Count) + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(Id, Mask);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.IndexPlusOne == 0) {
        S.Id = Id;
        S.IndexPlusOne = ++Count;
        Added = true;
        return Count - 1;
      }
      if (S.Id == Id) {
        Added = false;
        return S.IndexPlusOne - 1;
      }
    }
  }

  uint32_t size() const { return Count; }

private:
  struct Slot {
    uint64_t Id = 0;
    uint32_t IndexPlusOne = 0; ///< 0 marks an empty slot
  };

  /// Fibonacci hashing: the multiply spreads dense and sparse ids alike,
  /// and the high half carries the mixed bits.
  static size_t slotOf(uint64_t Id, size_t Mask) {
    uint64_t H = Id * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(H ^ (H >> 32)) & Mask;
  }

  /// Doubles the table (kept at most half full) and reinserts every id.
  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 64 : Slots.size() * 2);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.IndexPlusOne == 0)
        continue;
      size_t I = slotOf(S.Id, Mask);
      while (Slots[I].IndexPlusOne != 0)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  uint32_t Count = 0;
};

} // namespace dlf

#endif // DLF_SUPPORT_IDINDEX_H
