#ifndef MMCONF_PREFETCH_CACHE_H_
#define MMCONF_PREFETCH_CACHE_H_

#include <cstdint>
#include <string>

#include "common/lru.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace mmconf::prefetch {

/// Replacement policy of the client's limited buffer (Section 4.4: "the
/// limited buffer size and communication bandwidth prevent" downloading
/// the whole document; "we download components most likely to be
/// requested by the user, using the user's buffer as a cache").
enum class CachePolicy : uint8_t {
  kNone = 0,     ///< no caching at all (baseline: every request misses)
  kLru,          ///< least-recently-used eviction (baseline)
  kPreference,   ///< evict the lowest prediction score first (the paper's
                 ///< preference-based policy)
};

const char* CachePolicyToString(CachePolicy policy);

/// Hit/miss counters.
struct CacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t insertions = 0;
  double HitRate() const {
    size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0;
  }
};

/// Byte-bounded client buffer keyed by "component/presentation". Lookup
/// records a hit or miss; Insert evicts per policy until the entry fits.
/// Entries larger than the whole capacity are rejected (ResourceExhausted)
/// and counted as an insertion failure, not an eviction storm.
class ClientCache {
 public:
  ClientCache(size_t capacity_bytes, CachePolicy policy)
      : capacity_(capacity_bytes), policy_(policy) {}

  CachePolicy policy() const { return policy_; }
  size_t capacity_bytes() const { return capacity_; }
  size_t used_bytes() const { return entries_.used_bytes(); }
  size_t entry_count() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }

  /// Mirrors hit/miss/evict/insert counts into `prefetch.cache.*`
  /// counters of `metrics` (may be null to detach; must outlive the
  /// cache). Handles are cached, so Lookup/Insert stay allocation-free.
  void SetObserver(obs::MetricsRegistry* metrics);

  /// True (and counted as hit) when the key is buffered. kNone always
  /// misses.
  bool Lookup(const std::string& key);

  /// Buffers an entry of `bytes` with prediction `score` (used by the
  /// preference policy). kNone ignores inserts. Replaces an existing
  /// entry's score/size in place.
  Status Insert(const std::string& key, size_t bytes, double score);

  bool Contains(const std::string& key) const {
    return entries_.Find(key) != nullptr;
  }

 private:
  void Evict();

  size_t capacity_;
  CachePolicy policy_;
  LruIndex<double> entries_;  ///< value: the entry's prediction score
  CacheStats stats_;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_insertions_ = nullptr;
};

/// Canonical cache key for a component presentation.
std::string CacheKey(const std::string& component,
                     const std::string& presentation);

}  // namespace mmconf::prefetch

#endif  // MMCONF_PREFETCH_CACHE_H_
