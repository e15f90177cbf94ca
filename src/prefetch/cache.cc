#include "prefetch/cache.h"

namespace mmconf::prefetch {

const char* CachePolicyToString(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone:
      return "none";
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kPreference:
      return "preference";
  }
  return "unknown";
}

std::string CacheKey(const std::string& component,
                     const std::string& presentation) {
  return component + "/" + presentation;
}

void ClientCache::SetObserver(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    m_hits_ = metrics->GetCounter("prefetch.cache.hits");
    m_misses_ = metrics->GetCounter("prefetch.cache.misses");
    m_evictions_ = metrics->GetCounter("prefetch.cache.evictions");
    m_insertions_ = metrics->GetCounter("prefetch.cache.insertions");
  } else {
    m_hits_ = nullptr;
    m_misses_ = nullptr;
    m_evictions_ = nullptr;
    m_insertions_ = nullptr;
  }
}

bool ClientCache::Lookup(const std::string& key) {
  if (policy_ == CachePolicy::kNone || entries_.FindAndTouch(key) == nullptr) {
    ++stats_.misses;
    if (m_misses_ != nullptr) m_misses_->Add();
    return false;
  }
  ++stats_.hits;
  if (m_hits_ != nullptr) m_hits_->Add();
  return true;
}

void ClientCache::Evict() {
  // kLru evicts the least recent entry. kPreference evicts the lowest
  // score; walking from the least recent end lets the least recently
  // used candidate win score ties.
  const auto* victim = &entries_.LeastRecentFirst().front();
  if (policy_ == CachePolicy::kPreference) {
    for (const auto& node : entries_.LeastRecentFirst()) {
      if (node.value < victim->value) victim = &node;
    }
  }
  entries_.Erase(victim->key);
  ++stats_.evictions;
  if (m_evictions_ != nullptr) m_evictions_->Add();
}

Status ClientCache::Insert(const std::string& key, size_t bytes,
                           double score) {
  if (policy_ == CachePolicy::kNone) return Status::OK();
  if (bytes > capacity_) {
    return Status::ResourceExhausted("entry of " + std::to_string(bytes) +
                                     " bytes exceeds cache capacity " +
                                     std::to_string(capacity_));
  }
  entries_.Erase(key);
  while (entries_.used_bytes() + bytes > capacity_) Evict();
  entries_.InsertFront(key, bytes, score);
  ++stats_.insertions;
  if (m_insertions_ != nullptr) m_insertions_->Add();
  return Status::OK();
}

}  // namespace mmconf::prefetch
