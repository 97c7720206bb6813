// Content-addressed cache: one implementation behind every place the repo
// amortizes repeated work — the batch runner's trajectory and grid buffers,
// the measure stage's forward planes, and the daemon's mission results.
//
// Contract (pinned by tests/test_content_cache.cpp for every value kind):
//   - The key is the full input as a byte string (bit patterns for doubles).
//     Its splitmix64 digest only selects candidates: every hit is verified
//     by a full key compare, so a digest collision costs a miss, never a
//     wrong value.
//   - Values are immutable once stored and handed out as
//     shared_ptr<const V>: a holder keeps using a value after eviction.
//   - FIFO eviction in insertion order, so retention depends only on the
//     lookup sequence, never on timing. Capacity 0 retains nothing: every
//     get_or_build builds fresh and counts a miss.
//   - Thread-safe. get_or_build builds under the lock, so each distinct key
//     misses exactly once per cold run at any thread count.
//   - Stats are kept internally (hits, misses, evictions, entries), so they
//     survive RFLY_OBS=OFF; the obs layer mirrors the first three as
//     `<prefix>.{hits,misses,evictions}`.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/digest.h"
#include "obs/metrics.h"

namespace rfly {

/// Retention bound of the process-wide caches (entries per value kind).
inline constexpr std::size_t kDefaultCacheCapacity = 64;

/// The digest ContentCache uses to select candidate entries.
inline std::uint64_t content_digest(std::string_view key) {
  return digest_string(0, key);
}

template <typename V, std::uint64_t (*Digest)(std::string_view) = content_digest>
class ContentCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  // currently retained
  };

  ContentCache(const std::string& obs_prefix, std::size_t capacity)
      : capacity_(capacity),
        hits_obs_(obs::counter(obs_prefix + ".hits")),
        misses_obs_(obs::counter(obs_prefix + ".misses")),
        evictions_obs_(obs::counter(obs_prefix + ".evictions")) {}

  /// The value for `key`: the cached entry on a verified hit; otherwise
  /// `build()` (returning a V) runs under the lock and its result is
  /// retained when capacity allows.
  template <typename Build>
  std::shared_ptr<const V> get_or_build(std::string key, Build&& build) {
    const std::uint64_t digest = Digest(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = lookup_locked(digest, key)) return hit;
    auto built = std::make_shared<const V>(build());
    store_locked(digest, std::move(key), built);
    return built;
  }

  /// Lookup without building: the cached value (a hit) or null (a miss).
  std::shared_ptr<const V> find(std::string_view key) {
    const std::uint64_t digest = Digest(key);
    std::lock_guard<std::mutex> lock(mu_);
    return lookup_locked(digest, key);
  }

  /// Retain `value` unless `key` is already present: the first insert wins
  /// (racing producers of one key made the same value). Not a lookup, so
  /// it counts neither a hit nor a miss.
  void insert(std::string key, V value) {
    const std::uint64_t digest = Digest(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0 || match_locked(digest, key) != nullptr) return;
    store_locked(digest, std::move(key),
                 std::make_shared<const V>(std::move(value)));
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.entries = entries_.size();
    return s;
  }

  /// Drop every entry; stats keep counting. Forces a cold cache, which
  /// must give the same answers as a warm one.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  /// Change the retention bound, evicting oldest-first down to it.
  void set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    evict_locked();
  }

  std::size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::string key;
    std::shared_ptr<const V> value;
  };

  const Entry* match_locked(std::uint64_t digest, std::string_view key) const {
    for (const Entry& entry : entries_) {
      if (entry.digest == digest && entry.key == key) return &entry;
    }
    return nullptr;
  }

  std::shared_ptr<const V> lookup_locked(std::uint64_t digest,
                                         std::string_view key) {
    if (const Entry* entry = match_locked(digest, key)) {
      ++stats_.hits;
      hits_obs_.inc();
      return entry->value;
    }
    ++stats_.misses;
    misses_obs_.inc();
    return nullptr;
  }

  void store_locked(std::uint64_t digest, std::string key,
                    std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    entries_.push_back({digest, std::move(key), std::move(value)});
    evict_locked();
  }

  void evict_locked() {
    while (entries_.size() > capacity_) {
      entries_.pop_front();
      ++stats_.evictions;
      evictions_obs_.inc();
    }
  }

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // insertion order = eviction order
  std::size_t capacity_;
  Stats stats_;  // entries is filled in by stats()
  obs::Counter& hits_obs_;
  obs::Counter& misses_obs_;
  obs::Counter& evictions_obs_;
};

}  // namespace rfly
