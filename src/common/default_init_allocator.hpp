// An allocator for buffers whose first write is their fill.
#pragma once

#include <memory>
#include <new>

namespace qsv {

/// std::allocator whose no-argument construct default-initialises: a
/// vector of doubles or bytes sized through it leaves them unwritten, so
/// whatever writes them first (SoaStorage's parallel zero fill, a message's
/// fill) is the first touch. Construction from a value (a copy) is
/// allocator_traits' default.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace qsv
