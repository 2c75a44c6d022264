//===- PlanCache.cpp - Bounded LRU cache of executable plans ----------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/PlanCache.h"

#include "obs/Metrics.h"

using namespace parrec::exec;

size_t PlanCache::KeyHash::operator()(const Key &K) const {
  uint64_t Hash = K.Plan.hash();
  for (const std::vector<int64_t> *Bounds : {&K.Lower, &K.Upper})
    for (int64_t V : *Bounds) {
      Hash ^= static_cast<uint64_t>(V);
      Hash *= 0x100000001b3ull;
    }
  return static_cast<size_t>(Hash);
}

std::shared_ptr<const ExecutablePlan> PlanCache::lookup(const Key &K) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(K);
  if (It == Index.end()) {
    ++Counters.Misses;
    parrec::obs::MetricsRegistry::global().add("plan_cache.misses");
    return nullptr;
  }
  ++Counters.Hits;
  parrec::obs::MetricsRegistry::global().add("plan_cache.hits");
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->second;
}

void PlanCache::insert(const Key &K,
                       std::shared_ptr<const ExecutablePlan> Plan) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(K);
  if (It != Index.end()) {
    It->second->second = std::move(Plan);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
    parrec::obs::MetricsRegistry::global().add("plan_cache.evictions");
  }
  Lru.emplace_front(K, std::move(Plan));
  Index.emplace(K, Lru.begin());
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Lru.clear();
  Index.clear();
  Counters = Stats();
}

std::shared_ptr<const PlanShape>
ShapeCache::lookup(const ShapeKey &Key) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Shapes.find(Key);
  return It == Shapes.end() ? nullptr : It->second;
}

std::shared_ptr<const PlanShape>
ShapeCache::insert(const ShapeKey &Key, std::shared_ptr<PlanShape> Shape,
                   const std::function<void(PlanShape &)> &OnPublish) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (auto It = Shapes.find(Key); It != Shapes.end())
    return It->second;
  if (OnPublish)
    OnPublish(*Shape);
  return Shapes.emplace(Key, std::move(Shape)).first->second;
}

void ShapeCache::clear() {
  // Dropping a shape joins its compile: do it outside the lock.
  decltype(Shapes) Dropped;
  std::lock_guard<std::mutex> Lock(Mutex);
  Dropped.swap(Shapes);
}
