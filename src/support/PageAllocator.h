//===- PageAllocator.h - Large buffers straight from the OS ------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standard allocator that maps buffers of at least MinMappedBytes (128
/// KiB) as private anonymous pages; smaller ones go through operator new.
/// A mapped buffer is address space until it is touched.
///
/// The point is a predictable resident set. glibc raises its mmap
/// threshold to the size of any mapped block that is freed, so after the
/// first multi-MiB buffer is released every later one is carved from the
/// brk heap. There, whether the untouched tail of a reservation costs
/// resident pages depends on which freed blocks it lands on, i.e. on
/// every small allocation made since: peak RSS then varies from run to
/// run of the same work by more than a MiB.
///
/// Released mappings are parked. Each thread keeps a short list of the
/// mappings it released (at most MaxParkedMappings, MaxParkedBytes of
/// mapping in total), and the next allocation of the same size on that
/// thread takes one back, pages already faulted in. A thread that builds
/// one MTBDD context after another (every verdict of a benchmark, every
/// nv-fuzz oracle leg, every session load of nv serve) then reuses the
/// previous context's mapped buffers (node store, tables and op cache
/// once they reach MinMappedBytes) instead of unmapping them and faulting
/// fresh zero pages in. Parking one evicts the oldest ones when the list
/// is full; a mapping larger than MaxParkedBytes is unmapped at once, and
/// a thread's list is unmapped when it exits. A parked mapping still holds
/// its old contents: std::vector value-initializes every element it uses,
/// so nothing crosses contexts, and a raw user must not read what it did
/// not write.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_PAGEALLOCATOR_H
#define NV_SUPPORT_PAGEALLOCATOR_H

#include <cstddef>
#include <new>

namespace nv {

/// Per-thread caps on parked mappings. An ft-fat verdict parks four (the
/// grown node store, the op cache's reservation and the checker's two hit
/// vectors, 1.3 MiB of them resident); a node store or table at fig13b's
/// scale is longer than the byte cap and is unmapped as before.
inline constexpr size_t MaxParkedMappings = 16;
inline constexpr size_t MaxParkedBytes = size_t(8) << 20;

/// \p Bytes of zero or reused read-write pages: a mapping this thread
/// parked with exactly that length, else a fresh one. Throws
/// std::bad_alloc when the system has no more.
void *mapPages(size_t Bytes);
/// Parks the mapping \p P of length \p Bytes on this thread's list, or
/// unmaps it if it alone exceeds MaxParkedBytes.
void unmapPages(void *P, size_t Bytes) noexcept;

template <class T> struct PageAllocator {
  using value_type = T;
  /// Buffers at least this large are mapped; smaller ones use the heap.
  /// glibc's own default mmap threshold: a smaller mapping parked while
  /// its context grows past it stays resident, where a freed heap block
  /// would serve the context's other allocations (ft-fat read 0.2 MB more
  /// peak RSS with every buffer of a page or more mapped).
  static constexpr size_t MinMappedBytes = size_t(128) << 10;

  PageAllocator() = default;
  template <class U> PageAllocator(const PageAllocator<U> &) {}

  T *allocate(size_t N) {
    size_t Bytes = N * sizeof(T);
    if (Bytes < MinMappedBytes)
      return static_cast<T *>(::operator new(Bytes));
    return static_cast<T *>(mapPages(Bytes));
  }

  void deallocate(T *P, size_t N) {
    size_t Bytes = N * sizeof(T);
    if (Bytes < MinMappedBytes)
      ::operator delete(P);
    else
      unmapPages(P, Bytes);
  }

  template <class U> bool operator==(const PageAllocator<U> &) const {
    return true;
  }
  template <class U> bool operator!=(const PageAllocator<U> &) const {
    return false;
  }
};

} // namespace nv

#endif // NV_SUPPORT_PAGEALLOCATOR_H
