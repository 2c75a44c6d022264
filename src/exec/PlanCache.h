//===- PlanCache.h - Bounded LRU cache of executable plans --------*- C++ -*-==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two plan caches of a compiled function. PlanCache is a bounded,
/// internally synchronised LRU cache from (PlanKey, box) to shared
/// immutable ExecutablePlans: a hit skips planning altogether, including
/// schedule synthesis (a CSP search). ShapeCache maps a resolved
/// (schedule, window, jit) shape to its PlanShape: a plan miss for a new
/// box of a known shape resolves the schedule and then reuses the
/// parametric loop nest and the native kernel, so loop generation and
/// the host C compiler run once per shape, not once per sequence length.
///
//===----------------------------------------------------------------------===//

#ifndef PARREC_EXEC_PLANCACHE_H
#define PARREC_EXEC_PLANCACHE_H

#include "exec/Plan.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace parrec {
namespace exec {

class PlanCache {
public:
  /// A plan's identity: the request key plus the concrete box.
  struct Key {
    PlanKey Plan;
    std::vector<int64_t> Lower;
    std::vector<int64_t> Upper;

    friend bool operator==(const Key &A, const Key &B) = default;
  };

  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  static Key keyFor(const PlanKey &Plan, const solver::DomainBox &Box) {
    return {Plan, Box.Lower, Box.Upper};
  }

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  explicit PlanCache(size_t Capacity = DefaultCapacity)
      : Capacity(Capacity ? Capacity : 1) {}

  /// Returns the cached plan for \p Key and marks it most recently used,
  /// or null on a miss. Counts a hit or a miss.
  std::shared_ptr<const ExecutablePlan> lookup(const Key &K);

  /// Inserts \p Plan under \p Key (replacing any existing entry),
  /// evicting the least recently used entry when full.
  void insert(const Key &K, std::shared_ptr<const ExecutablePlan> Plan);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return Capacity; }
  void clear();

  static constexpr size_t DefaultCapacity = 64;

private:
  using Entry = std::pair<Key, std::shared_ptr<const ExecutablePlan>>;

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::list<Entry> Lru; // Front = most recently used.
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> Index;
  Stats Counters;
};

/// Shapes of one function. Unbounded: a function has one shape per
/// distinct (schedule, window, jit) combination its requests resolve
/// to, a handful in practice, and every cached plan pins its shape
/// anyway.
class ShapeCache {
public:
  /// The shape stored under \p Key, or null.
  std::shared_ptr<const PlanShape> lookup(const ShapeKey &Key) const;

  /// The shape stored under \p Key. When there is none, stores \p Shape,
  /// first running \p OnPublish on it under the cache lock: planners
  /// racing on one new shape agree on one shape, and OnPublish (the jit
  /// pass starting the kernel's compile) runs once per shape.
  std::shared_ptr<const PlanShape>
  insert(const ShapeKey &Key, std::shared_ptr<PlanShape> Shape,
         const std::function<void(PlanShape &)> &OnPublish = nullptr);

  void clear();

private:
  mutable std::mutex Mutex;
  std::unordered_map<ShapeKey, std::shared_ptr<const PlanShape>,
                     ShapeKeyHash>
      Shapes;
};

} // namespace exec
} // namespace parrec

#endif // PARREC_EXEC_PLANCACHE_H
