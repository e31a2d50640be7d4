// Sharded LRU result cache: N independently-locked LruCache shards, the
// shard picked by a prefix (top bits) of the permutation-invariant
// canonical instance hash.
//
// Why sharding: the service used to guard one LruCache with the same
// mutex that ordered admission and the counters, so every concurrent
// connection serialized on one lock even when all traffic was cache hits.
// Each shard owns its own mutex and its own recency list; two requests
// whose instance hashes differ in the top bits never contend. Recency is
// therefore per-shard — the capacity contract becomes "at most
// ceil(capacity / shards) entries per shard", which callers that pin
// exact global LRU behavior (deterministic eviction tests, benches that
// count hits against a sized working set) preserve by configuring one
// shard.
//
// The hash is passed in alongside the string key rather than re-derived:
// the service already computes the canonical instance hash to build the
// key, and the shard index must come from the *instance* hash (stable
// under job permutation), not from a hash of the composed key string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "service/lru_cache.hpp"

namespace calisched {

template <typename Key, typename Value>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly (rounded up)
  /// across `shards`; capacity 0 disables caching entirely. A shard count
  /// of 0 or 1 degenerates to one LruCache behind one mutex — byte-for-
  /// byte the pre-sharding semantics.
  ShardedLruCache(std::size_t capacity, std::size_t shards)
      : capacity_(capacity) {
    if (shards == 0) shards = 1;
    const std::size_t per_shard =
        capacity == 0 ? 0 : (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Which shard a canonical hash lands in (top-bit prefix, modulo the
  /// shard count so any count works, not only powers of two). Exposed so
  /// tests can pin the prefix routing.
  [[nodiscard]] std::size_t shard_index(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> 48) % shards_.size();
  }

  /// Copies the cached value out under the shard lock (promoting the
  /// entry), or returns false on a miss. A copy, not a pointer: the
  /// pointer-returning LruCache::get contract only holds while the one
  /// service mutex stayed locked; with per-shard locks a stable reference
  /// would race the next put.
  [[nodiscard]] bool get(std::uint64_t hash, const Key& key, Value* out) {
    Shard& shard = *shards_[shard_index(hash)];
    std::scoped_lock lock(shard.mutex);
    if (const Value* found = shard.cache.get(key)) {
      *out = *found;
      return true;
    }
    return false;
  }

  void put(std::uint64_t hash, const Key& key, Value value) {
    if (capacity_ == 0) return;
    Shard& shard = *shards_[shard_index(hash)];
    std::scoped_lock lock(shard.mutex);
    shard.cache.put(key, std::move(value));
  }

  /// Total entries across shards. Each shard is locked in turn, so the
  /// sum is a consistent snapshot only once the service has quiesced —
  /// exactly when the stats contracts sample it.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      std::scoped_lock lock(shard->mutex);
      total += shard->cache.size();
    }
    return total;
  }

 private:
  struct Shard {
    explicit Shard(std::size_t per_shard) : cache(per_shard) {}
    mutable std::mutex mutex;
    LruCache<Key, Value> cache;
  };

  std::size_t capacity_;
  /// unique_ptr per shard: the mutexes must not move when the vector is
  /// built, and padding each shard to its own allocation keeps two hot
  /// shard locks off one cache line.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace calisched
