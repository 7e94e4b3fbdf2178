//===- PageAllocator.cpp - Large buffers straight from the OS -------------===//

#include "support/PageAllocator.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <cstring>

using namespace nv;

namespace {

/// This thread's parked mappings, oldest first.
struct ParkedList {
  struct Mapping {
    void *P;
    size_t Bytes;
  };
  Mapping Slots[MaxParkedMappings];
  size_t Count = 0;
  size_t Bytes = 0;
  /// Set once the thread's exit emptied the list; a buffer released by a
  /// later destructor is unmapped.
  bool Closed = false;

  ~ParkedList() {
    while (Count)
      evictOldest();
    Closed = true;
  }

  void evictOldest() {
    Mapping M = Slots[0];
    std::memmove(Slots, Slots + 1, --Count * sizeof(Mapping));
    Bytes -= M.Bytes;
    ASAN_UNPOISON_MEMORY_REGION(M.P, M.Bytes);
    ::munmap(M.P, M.Bytes);
  }

  /// Takes the newest parked mapping of length \p Len, or null.
  void *take(size_t Len) {
    for (size_t I = Count; I-- > 0;)
      if (Slots[I].Bytes == Len) {
        void *P = Slots[I].P;
        std::memmove(Slots + I, Slots + I + 1,
                     (Count - I - 1) * sizeof(Mapping));
        --Count;
        Bytes -= Len;
        ASAN_UNPOISON_MEMORY_REGION(P, Len);
        return P;
      }
    return nullptr;
  }

  void park(void *P, size_t Len) {
    while (Count == MaxParkedMappings || Bytes + Len > MaxParkedBytes)
      evictOldest();
    // Parked pages are freed memory: a stale pointer into them is a
    // use-after-free, which ASan reports as it would on the heap.
    ASAN_POISON_MEMORY_REGION(P, Len);
    Slots[Count++] = {P, Len};
    Bytes += Len;
  }
};

thread_local ParkedList Parked;

} // namespace

void *nv::mapPages(size_t Bytes) {
  if (void *P = Parked.take(Bytes))
    return P;
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return P;
}

void nv::unmapPages(void *P, size_t Bytes) noexcept {
  if (Bytes > MaxParkedBytes || Parked.Closed)
    ::munmap(P, Bytes);
  else
    Parked.park(P, Bytes);
}
