// Indexed d-ary min-heap — the simulation kernel's event queue structure.
//
// Layout: values live in a stable slab (`pool_`) recycled through a LIFO
// freelist; the heap itself orders compact {key, slot} nodes.  Three
// properties std::priority_queue cannot offer drove this:
//
//   1. pop() RETURNS the minimum by move.  priority_queue::top() is const, so
//      extracting an entry forces a full copy (for an entry holding a
//      callable, that used to mean a heap allocation per dispatched event).
//   2. Ordering work never touches the values.  A kernel entry is ~96 bytes
//      (timestamp + sequence + cause + 72-byte inline callable); sifting
//      those directly moves multiple cache lines per level.  Here a value is
//      written into its pool slot once on push and moved out once on pop —
//      sift-up/down compares and shuffles 24-byte key/slot nodes that sit
//      contiguously in their own array.
//   3. Arity D = 4 (default): sift-down visits ~log4 levels with the child
//      nodes of a parent adjacent in memory (one or two cache lines per
//      level), trading a few extra comparisons per level for half the levels
//      of a binary heap.
//
// The LIFO freelist keeps the recycled pool slots cache-hot: a steady-state
// schedule/dispatch loop keeps reusing the same few slots.  It is threaded
// through the per-slot metadata (generation + next-free link, 8 bytes a
// slot), so recycling a slot touches one small array, not two.
//
// Cancellation (erase) uses tombstones, not position tracking.  push()
// returns a Handle {slot, generation}; erase() bumps the slot's generation,
// releases the value and leaves the {key, slot} node in the heap as a dead
// entry.  Dead entries are dropped when they surface at the root (so the
// root is always live and top()/pop() never see one), and the whole heap is
// rebuilt once dead nodes outnumber live ones, which bounds the heap at
// twice the live count.  The sift loops carry no per-level bookkeeping: an
// index-tracking heap would have to write a slot -> position map at every
// level of every push and pop, a tax on the pure schedule/dispatch path that
// never cancels anything.  A slot's generation is odd while its entry is
// pending and even otherwise, so one 32-bit word per slot answers both "is
// this handle current" and "is this node dead"; pop() and push() bump it
// in the slot's metadata word they already touch for the freelist.
//
// `KeyLess` must be a strict weak ordering on `Key`; when it is a strict
// TOTAL order (the kernel orders by the unique (when, seq) pair) the pop
// sequence is unique, which is what makes kernel dispatch order — and
// therefore every trace — deterministic regardless of the internal layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace aft::util {

/// Names one pushed DHeap entry for erase().  A handle goes stale once its
/// entry is popped or erased; a default handle names nothing.  Stale
/// handles are rejected by generation, which is 32 bits wide: a handle kept
/// across 2^31 reuses of its slot could alias a newer entry.
struct DHeapHandle {
  std::uint32_t slot = ~std::uint32_t{0};
  std::uint32_t generation = 0;
};

template <typename T, typename Key, typename KeyLess = std::less<Key>,
          std::size_t D = 4>
class DHeap {
  static_assert(D >= 2, "DHeap: arity must be at least 2");
  using Index = std::uint32_t;

 public:
  using Handle = DHeapHandle;

  DHeap() = default;
  explicit DHeap(KeyLess less) : less_(std::move(less)) {}

  /// Pending (pushed, not yet popped or erased) entries.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - dead_;
  }

  /// Smallest pending element / its key.  Precondition: !empty().
  [[nodiscard]] const T& top() const noexcept {
    return pool_[heap_.front().slot];
  }
  [[nodiscard]] const Key& top_key() const noexcept {
    return heap_.front().key;
  }

  void reserve(std::size_t n) {
    pool_.reserve(n);
    meta_.reserve(n);
    heap_.reserve(n);
  }

  /// Drops every entry; every outstanding handle goes stale.  Slot
  /// metadata outlives the pool, so a slot index handed out again after
  /// clear() carries a fresh generation.
  void clear() noexcept {
    for (SlotMeta& m : meta_) m.generation += m.generation & 1u;
    pool_.clear();
    heap_.clear();
    free_head_ = kNoSlot;
    dead_ = 0;
  }

  /// The value is moved (or copied, for an lvalue) exactly once, into a
  /// pool slot (a recycled one when available); ordering work shuffles
  /// {key, slot} nodes only.
  template <typename U>
  Handle push(Key key, U&& value) {
    Index slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = meta_[slot].next_free;
      pool_[slot] = std::forward<U>(value);
    } else {
      slot = static_cast<Index>(pool_.size());
      pool_.push_back(std::forward<U>(value));
      if (slot == meta_.size()) meta_.emplace_back();
    }
    const Index generation = ++meta_[slot].generation;
    // Hole-based sift-up of the new node.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / D;
      if (!less_(key, heap_[parent].key)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = Node{std::move(key), slot};
    return Handle{slot, generation};
  }

  /// Removes and returns the smallest element by move (never copies); its
  /// pool slot goes back on the freelist.  Precondition: !empty().
  T pop() {
    const Index slot = heap_.front().slot;
    T out = std::move(pool_[slot]);
    ++meta_[slot].generation;
    push_free(slot);
    remove_root();
    if (dead_ != 0) drop_dead_roots();
    return out;
  }

  /// Cancels the entry `handle` names: it will never be popped, and its
  /// value is released now.  Returns false, changing nothing, when the
  /// handle is stale (entry already popped or erased, slot since reused) or
  /// default.
  bool erase(Handle handle) {
    if (handle.slot >= meta_.size() || (handle.generation & 1u) == 0 ||
        meta_[handle.slot].generation != handle.generation) {
      return false;
    }
    ++meta_[handle.slot].generation;
    pool_[handle.slot] = T{};
    ++dead_;
    if (2 * dead_ > heap_.size()) {
      rebuild();
    } else {
      drop_dead_roots();
    }
    return true;
  }

 private:
  static constexpr Index kNoSlot = ~Index{0};

  struct SlotMeta {
    Index generation = 0;       ///< odd while the slot's entry is pending
    Index next_free = kNoSlot;  ///< freelist link while the slot is free
  };

  struct Node {
    Key key{};
    Index slot = 0;
  };

  [[nodiscard]] bool dead(const Node& node) const noexcept {
    return (meta_[node.slot].generation & 1u) == 0;
  }

  void push_free(Index slot) noexcept {
    meta_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  /// Removes the root node (its slot is the caller's business).
  void remove_root() {
    Node displaced = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, std::move(displaced));
  }

  /// Hole-based sift-down of `node` from position `hole`.  Forced inline:
  /// pop() is the kernel's dispatch path, and the cold callers below must
  /// not talk the compiler into an out-of-line copy.
  [[gnu::always_inline]] void sift_down(std::size_t hole, Node node) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = hole * D + 1;
      if (first >= n) break;
      const std::size_t end = first + D < n ? first + D : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less_(heap_[c].key, heap_[best].key)) best = c;
      }
      if (!less_(heap_[best].key, node.key)) break;
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(node);
  }

  /// Restores "the root is live" after an erase or a pop.
  [[gnu::noinline]] void drop_dead_roots() {
    while (!heap_.empty() && dead(heap_.front())) {
      push_free(heap_.front().slot);
      --dead_;
      remove_root();
    }
  }

  /// Frees every dead node and re-heapifies the live ones (Floyd, O(n)).
  /// Keys are a strict order, so the pop sequence is unchanged.
  [[gnu::noinline]] void rebuild() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (dead(heap_[i])) {
        push_free(heap_[i].slot);
      } else {
        heap_[kept++] = std::move(heap_[i]);
      }
    }
    heap_.resize(kept);
    dead_ = 0;
    for (std::size_t i = kept / D + 1; i-- > 0;) {
      if (i < kept) sift_down(i, std::move(heap_[i]));
    }
  }

  std::vector<T> pool_;         ///< stable value slab (moved-from slots linger)
  std::vector<SlotMeta> meta_;  ///< per pool slot: generation + freelist link
  std::vector<Node> heap_;      ///< d-ary heap of {key, pool slot} nodes
  Index free_head_ = kNoSlot;   ///< LIFO freelist of recyclable pool slots
  std::size_t dead_ = 0;        ///< erased nodes still in heap_
  KeyLess less_;
};

}  // namespace aft::util
