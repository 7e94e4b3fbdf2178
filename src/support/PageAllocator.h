//===- PageAllocator.h - Large buffers straight from the OS ------*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standard allocator that maps buffers of at least MinMappedBytes as
/// private anonymous pages and unmaps them on release; smaller ones go
/// through operator new. A mapped buffer is address space until it is
/// touched, and its pages go back to the OS when it is freed.
///
/// The point is a predictable resident set. glibc raises its mmap
/// threshold to the size of any mapped block that is freed, so after the
/// first multi-MiB buffer is released every later one is carved from the
/// brk heap. There, whether the untouched tail of a reservation costs
/// resident pages depends on which freed blocks it lands on, i.e. on
/// every small allocation made since: peak RSS then varies from run to
/// run of the same work by more than a MiB.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_PAGEALLOCATOR_H
#define NV_SUPPORT_PAGEALLOCATOR_H

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace nv {

template <class T> struct PageAllocator {
  using value_type = T;
  /// Buffers at least this large are mapped; smaller ones use the heap.
  static constexpr size_t MinMappedBytes = size_t(1) << 18;

  PageAllocator() = default;
  template <class U> PageAllocator(const PageAllocator<U> &) {}

  T *allocate(size_t N) {
    size_t Bytes = N * sizeof(T);
    if (Bytes < MinMappedBytes)
      return static_cast<T *>(::operator new(Bytes));
    void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return static_cast<T *>(P);
  }

  void deallocate(T *P, size_t N) {
    size_t Bytes = N * sizeof(T);
    if (Bytes < MinMappedBytes)
      ::operator delete(P);
    else
      ::munmap(P, Bytes);
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
