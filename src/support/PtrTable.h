//===- PtrTable.h - Open-addressed pointer set -------------------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash set of pointers with caller-supplied hashes and equality, laid
/// out like BddManager's unique table: power-of-two slots of (hash,
/// pointer), linear probing, load at most 1/2. There is no erase; callers
/// that must drop or re-hash entries rebuild the table instead. Teardown
/// frees one array, not one node per entry.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_PTRTABLE_H
#define NV_SUPPORT_PTRTABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nv {

template <class T> class PtrTable {
public:
  static constexpr size_t InitialSlots = 64;

  PtrTable() : Slots(InitialSlots) {}

  /// The entry of hash \p H for which \p Matches(const T &) holds, or null.
  template <class Eq> T *find(uint64_t H, Eq &&Matches) const {
    for (size_t I = H & mask();; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (!S.P)
        return nullptr;
      if (S.Hash == H && Matches(*S.P))
        return S.P;
    }
  }

  /// Adds \p P under hash \p H; no entry may already match it.
  void insert(uint64_t H, T *P) {
    if (2 * (Count + 1) > Slots.size()) {
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(Old.size() * 2, Slot{});
      for (const Slot &S : Old)
        if (S.P)
          place(S.Hash, S.P);
    }
    place(H, P);
    ++Count;
  }

  /// Re-inserts every entry under the hash \p Rehash(T &, uint64_t &H)
  /// leaves in H; an entry for which it returns false is dropped. The
  /// new hashes must keep the entries pairwise unequal.
  template <class Fn> void rebuild(Fn &&Rehash) {
    std::vector<Slot> Old(Slots.size());
    Old.swap(Slots);
    Count = 0;
    for (Slot &S : Old)
      if (S.P && Rehash(*S.P, S.Hash)) {
        place(S.Hash, S.P);
        ++Count;
      }
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Slots.size(); }

private:
  struct Slot {
    uint64_t Hash = 0;
    T *P = nullptr;
  };
  std::vector<Slot> Slots;
  size_t Count = 0;

  size_t mask() const { return Slots.size() - 1; }
  void place(uint64_t H, T *P) {
    size_t I = H & mask();
    while (Slots[I].P)
      I = (I + 1) & mask();
    Slots[I] = {H, P};
  }
};

} // namespace nv

#endif // NV_SUPPORT_PTRTABLE_H
